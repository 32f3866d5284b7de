"""Structural resolution of hierarchical VHDL1 designs.

This module turns the raw AST of a program with component instantiations into
a checked :class:`DesignHierarchy`:

* every architecture is *normalised* — ``block`` statements are spliced in
  place and their signal declarations hoisted, exactly as flat elaboration
  does, so the concurrent-statement order seen here is the process order the
  flat pipeline would produce;
* every instantiation is resolved against the component declarations in
  scope and the component's entity, and its port map is checked (arity,
  unknown/duplicate/missing formals) and normalised to a complete
  ``formal → actual`` binding in port declaration order;
* the instantiation relation over entities is checked to be acyclic.

All structural faults raise :class:`~repro.errors.HierarchyError`.  Both the
flattening elaborator (:mod:`repro.hier.flatten`) and the summary linker
(:mod:`repro.hier.link`) consume the same :class:`DesignHierarchy`, which is
what keeps their renaming schemes aligned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import HierarchyError
from repro.vhdl import ast

#: A normalised concurrent item: an ordinary leaf statement or an instance.
Item = Union[ast.ProcessStatement, ast.ConcurrentAssign, "Instance"]


@dataclass(frozen=True)
class Instance:
    """One resolved component instantiation.

    ``bindings`` maps every formal port to its actual (a parent-scope signal
    name), in the instantiated entity's port declaration order; ``modes``
    records each formal's declared mode in the same order.
    """

    label: str
    entity: str
    bindings: Tuple[Tuple[str, str], ...]
    modes: Tuple[ast.PortMode, ...]


@dataclass
class HierarchyUnit:
    """One entity/architecture pair in normalised form."""

    entity: ast.Entity
    architecture: ast.Architecture
    signals: List[ast.SignalDeclaration] = field(default_factory=list)
    other_declarations: List[ast.Declaration] = field(default_factory=list)
    components: Dict[str, ast.ComponentDeclaration] = field(default_factory=dict)
    items: List[Item] = field(default_factory=list)

    @property
    def name(self) -> str:
        """The entity name (declared spelling)."""
        return self.entity.name

    @property
    def instances(self) -> List[Instance]:
        """The resolved instantiations, in concurrent-statement order."""
        return [item for item in self.items if isinstance(item, Instance)]

    @property
    def leaves(self) -> List[ast.ConcurrentStatement]:
        """The ordinary concurrent statements, in order."""
        return [item for item in self.items if not isinstance(item, Instance)]

    def signal_names(self) -> List[str]:
        """Port names then internal signal names, in declaration order."""
        return [port.name for port in self.entity.ports] + [
            decl.name for decl in self.signals
        ]


@dataclass
class DesignHierarchy:
    """The checked instantiation tree of one root entity."""

    program: ast.Program
    root: str
    units: Dict[str, HierarchyUnit] = field(default_factory=dict)
    order: List[str] = field(default_factory=list)
    """Reachable entities in bottom-up (reverse topological) order."""

    @property
    def root_unit(self) -> HierarchyUnit:
        """The unit of the root entity."""
        return self.units[self.root.lower()]

    def unit_of(self, entity_name: str) -> HierarchyUnit:
        """The unit of ``entity_name`` (case-insensitive)."""
        return self.units[entity_name.lower()]

    def instance_count(self) -> int:
        """Total number of instances in the fully expanded tree."""
        below: Dict[str, int] = {}  # instances under one instance of an entity
        for name in self.order:  # bottom-up: children first
            below[name.lower()] = sum(
                1 + below[inst.entity.lower()] for inst in self.unit_of(name).instances
            )
        return below[self.root.lower()]


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------


def _instantiated(body: List[ast.ConcurrentStatement]) -> Iterator[str]:
    """The components ``body`` instantiates, in order, blocks included."""
    for stmt in body:
        if isinstance(stmt, ast.ComponentInstantiation):
            yield stmt.component.lower()
        elif isinstance(stmt, ast.BlockStatement):
            yield from _instantiated(stmt.body)


def has_instantiations(program: ast.Program) -> bool:
    """True when any architecture instantiates a component (even in blocks)."""
    return any(
        next(_instantiated(arch.body), None) is not None
        for arch in program.architectures
    )


@dataclass(frozen=True)
class Outline:
    """What one design unit declares, as far as the choice of a front and
    of an entity's units go: the entities it declares, and each of its
    architectures' entity and the components that architecture
    instantiates (blocks included), in order and in lower case."""

    entities: Tuple[str, ...]
    architectures: Tuple[Tuple[str, Tuple[str, ...]], ...]


def outline(program: ast.Program) -> Outline:
    """The :class:`Outline` of one design unit's AST."""
    return Outline(
        tuple(entity.name.lower() for entity in program.entities),
        tuple(
            (arch.entity_name.lower(), tuple(_instantiated(arch.body)))
            for arch in program.architectures
        ),
    )


def _roots(architectures: Sequence[Tuple[int, str, Tuple[str, ...]]]) -> List[str]:
    """The entities of the architectures no architecture instantiates."""
    instantiated = {name for _, _, components in architectures for name in components}
    return [name for _, name, _ in architectures if name not in instantiated]


def reach(
    outlines: Sequence[Outline], entity_name: Optional[str] = None
) -> Tuple[bool, Tuple[int, ...]]:
    """Whether a file's units are linked, and which units an entity reaches.

    ``outlines`` are the file's units in order.  The units are linked when
    any architecture instantiates a component (:func:`has_instantiations`
    over all of them).  The entity reaches the first unit declaring it and
    the first holding one of its architectures (the ones
    :meth:`~repro.vhdl.ast.Program.entity` and
    :meth:`~repro.vhdl.ast.Program.architecture_of` return), and what the
    components of that architecture reach in turn.  ``entity_name=None``
    names the entity of the one architecture no architecture instantiates
    (a flat file's only architecture, a linked file's root, as
    :func:`build_hierarchy` infers it), and the reached units alone must
    infer the same one.  When a lookup fails or ``None`` is ambiguous, every
    unit is reached, so the fronts raise their usual errors.
    """
    architectures = [
        (index, name, components)
        for index, unit in enumerate(outlines)
        for name, components in unit.architectures
    ]
    linked = any(components for _, _, components in architectures)
    reached = _reached(outlines, architectures, entity_name)
    return linked, reached if reached is not None else tuple(range(len(outlines)))


def _reached(
    outlines: Sequence[Outline],
    architectures: List[Tuple[int, str, Tuple[str, ...]]],
    entity_name: Optional[str],
) -> Optional[Tuple[int, ...]]:
    roots = _roots(architectures) if entity_name is None else None
    if roots is not None and len(roots) != 1:
        return None
    first_entity: Dict[str, int] = {}
    for index, unit in enumerate(outlines):
        for name in unit.entities:
            first_entity.setdefault(name, index)
    first_architecture: Dict[str, Tuple[int, Tuple[str, ...]]] = {}
    for index, name, components in architectures:
        first_architecture.setdefault(name, (index, components))
    reached: Set[int] = set()
    seen: Set[str] = set()
    pending = [entity_name.lower() if roots is None else roots[0]]
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        if name not in first_entity or name not in first_architecture:
            return None
        index, components = first_architecture[name]
        reached.update((first_entity[name], index))
        pending.extend(components)
    if roots is not None and _roots(
        [item for item in architectures if item[0] in reached]
    ) != roots:
        return None
    return tuple(sorted(reached))


# ---------------------------------------------------------------------------
# Normalisation
# ---------------------------------------------------------------------------


def _collect_declarations(unit: HierarchyUnit, decls: List[ast.Declaration]) -> None:
    for decl in decls:
        if isinstance(decl, ast.SignalDeclaration):
            unit.signals.append(decl)
        elif isinstance(decl, ast.ComponentDeclaration):
            key = decl.name.lower()
            if key in unit.components:
                raise HierarchyError(
                    f"duplicate component declaration {decl.name!r} in "
                    f"architecture {unit.architecture.name!r}"
                )
            unit.components[key] = decl
        else:
            # Anything else (e.g. a variable outside a process) is left for
            # flat elaboration to reject with its usual diagnostics.
            unit.other_declarations.append(decl)


def _resolve_port_map(
    stmt: ast.ComponentInstantiation,
    ports: List[ast.Port],
    entity_name: str,
) -> Dict[str, str]:
    """Check the port map of ``stmt`` and return the ``formal → actual`` map."""
    where = f"instantiation {stmt.label!r} of {entity_name!r}"
    if len(stmt.associations) > len(ports):
        raise HierarchyError(
            f"{where}: port map has {len(stmt.associations)} associations "
            f"but the entity declares {len(ports)} ports"
        )
    port_names = [port.name for port in ports]
    bindings: Dict[str, str] = {}
    positional = True
    for index, assoc in enumerate(stmt.associations):
        if not isinstance(assoc.actual, ast.Name):
            raise HierarchyError(
                f"{where}: actual for association {index + 1} must be a "
                "plain signal name"
            )
        actual = assoc.actual.ident
        if assoc.formal is None:
            if not positional:
                raise HierarchyError(
                    f"{where}: positional association after a named one"
                )
            formal = port_names[index]
        else:
            positional = False
            formal = assoc.formal
            if formal not in port_names:
                raise HierarchyError(
                    f"{where}: unknown formal port {formal!r} "
                    f"(entity ports: {', '.join(port_names)})"
                )
        if formal in bindings:
            raise HierarchyError(f"{where}: formal port {formal!r} bound twice")
        bindings[formal] = actual
    missing = [name for name in port_names if name not in bindings]
    if missing:
        raise HierarchyError(
            f"{where}: unbound formal port(s) {', '.join(repr(m) for m in missing)}"
        )
    return bindings


def _check_aliasing(
    stmt: ast.ComponentInstantiation,
    ports: List[ast.Port],
    bindings: Dict[str, str],
    entity_name: str,
) -> None:
    """Reject an actual shared between an ``out`` formal and any other formal.

    Aliasing two *read* ports onto one signal renames only reads and stays
    exact; aliasing a *written* port conflates assignment-kill sets, which the
    compositional linker cannot reproduce, so both routes refuse it.
    """
    actual_users: Dict[str, List[ast.Port]] = {}
    for port in ports:
        actual_users.setdefault(bindings[port.name], []).append(port)
    for actual, users in actual_users.items():
        if len(users) > 1 and any(p.mode is ast.PortMode.OUT for p in users):
            formals = ", ".join(repr(p.name) for p in users)
            raise HierarchyError(
                f"instantiation {stmt.label!r} of {entity_name!r}: actual "
                f"{actual!r} is bound to an out-mode formal and also to "
                f"another formal ({formals}); aliasing a written port is "
                "not supported"
            )


def _normalize_unit(unit: HierarchyUnit, program: ast.Program) -> None:
    """Splice blocks, hoist their declarations and resolve instantiations."""

    parent_signals = set(unit.signal_names())
    instance_labels: Set[str] = set()

    def _resolve_instance(stmt: ast.ComponentInstantiation) -> Instance:
        component = unit.components.get(stmt.component.lower())
        if component is None:
            raise HierarchyError(
                f"instantiation {stmt.label!r}: unknown component "
                f"{stmt.component!r} (no component declaration in "
                f"architecture {unit.architecture.name!r})"
            )
        entity = program.entity(component.name)
        if entity is None:
            raise HierarchyError(
                f"component {component.name!r} does not name a declared entity"
            )
        _check_component_interface(component, entity)
        bindings = _resolve_port_map(stmt, entity.ports, entity.name)
        _check_aliasing(stmt, entity.ports, bindings, entity.name)
        for formal, actual in bindings.items():
            if actual not in parent_signals:
                raise HierarchyError(
                    f"instantiation {stmt.label!r} of {entity.name!r}: actual "
                    f"{actual!r} (for formal {formal!r}) is not a signal of "
                    f"the enclosing architecture"
                )
        if stmt.label in instance_labels:
            raise HierarchyError(
                f"duplicate instance label {stmt.label!r} in architecture "
                f"{unit.architecture.name!r}"
            )
        instance_labels.add(stmt.label)
        return Instance(
            label=stmt.label,
            entity=entity.name,
            bindings=tuple((port.name, bindings[port.name]) for port in entity.ports),
            modes=tuple(port.mode for port in entity.ports),
        )

    # Depth first in source order, each block's statements in its place.
    pending = [iter(unit.architecture.body)]
    while pending:
        stmt = next(pending[-1], None)
        if stmt is None:
            pending.pop()
        elif isinstance(stmt, ast.BlockStatement):
            _collect_declarations(unit, stmt.declarations)
            parent_signals.update(
                d.name
                for d in stmt.declarations
                if isinstance(d, ast.SignalDeclaration)
            )
            pending.append(iter(stmt.body))
        elif isinstance(stmt, ast.ComponentInstantiation):
            unit.items.append(_resolve_instance(stmt))
        elif isinstance(stmt, (ast.ProcessStatement, ast.ConcurrentAssign)):
            unit.items.append(stmt)
        else:
            raise HierarchyError(
                f"unsupported concurrent statement "
                f"{type(stmt).__name__} in architecture "
                f"{unit.architecture.name!r}"
            )


def _signal_assign_targets(statements) -> List[str]:
    targets: List[str] = []
    for stmt in statements:
        if isinstance(stmt, ast.SignalAssign):
            targets.append(stmt.target)
        elif isinstance(stmt, ast.If):
            targets.extend(_signal_assign_targets(stmt.then_branch))
            targets.extend(_signal_assign_targets(stmt.else_branch))
        elif isinstance(stmt, ast.While):
            targets.extend(_signal_assign_targets(stmt.body))
    return targets


def _check_port_writes(unit: HierarchyUnit) -> None:
    """Reject writes to ``in``-mode ports of the unit's own entity.

    Flat elaboration enforces this per design; checking it structurally here
    keeps the flattening route (where a child's in-port occurrence is renamed
    to a writable parent signal) in agreement with the summary route (where
    each entity is elaborated standalone).
    """
    in_ports = {p.name for p in unit.entity.ports if p.mode is ast.PortMode.IN}
    if not in_ports:
        return
    for item in unit.items:
        if isinstance(item, Instance):
            continue
        if isinstance(item, ast.ConcurrentAssign):
            targets = _signal_assign_targets([item.assignment])
            where = "concurrent assignment"
        else:
            targets = _signal_assign_targets(item.body)
            where = f"process {item.name!r}"
        for target in targets:
            if target in in_ports:
                raise HierarchyError(
                    f"entity {unit.name!r}: {where} assigns to input "
                    f"port {target!r}"
                )


def _check_component_interface(
    component: ast.ComponentDeclaration, entity: ast.Entity
) -> None:
    declared = [(p.name, p.mode) for p in component.ports]
    actual = [(p.name, p.mode) for p in entity.ports]
    if declared != actual:
        raise HierarchyError(
            f"component declaration {component.name!r} does not match entity "
            f"{entity.name!r}: component ports "
            f"({', '.join(f'{n}:{m.value}' for n, m in declared)}) vs entity "
            f"ports ({', '.join(f'{n}:{m.value}' for n, m in actual)})"
        )


# ---------------------------------------------------------------------------
# Hierarchy construction
# ---------------------------------------------------------------------------


def _unit_for(program: ast.Program, entity_name: str) -> HierarchyUnit:
    entity = program.entity(entity_name)
    if entity is None:
        raise HierarchyError(f"entity {entity_name!r} is not declared")
    architecture = program.architecture_of(entity_name)
    if architecture is None:
        raise HierarchyError(f"no architecture found for entity {entity_name!r}")
    unit = HierarchyUnit(entity=entity, architecture=architecture)
    _collect_declarations(unit, architecture.declarations)
    _normalize_unit(unit, program)
    _check_port_writes(unit)
    return unit


def _infer_root(program: ast.Program) -> str:
    """The unique entity that no architecture instantiates."""
    if not program.architectures:
        raise HierarchyError("program contains no architecture")
    instantiated = {
        name for arch in program.architectures for name in _instantiated(arch.body)
    }
    roots = [
        arch.entity_name
        for arch in program.architectures
        if arch.entity_name.lower() not in instantiated
    ]
    if len(roots) == 1:
        return roots[0]
    if not roots:
        raise HierarchyError(
            "no root entity: every architecture is instantiated by another "
            "(instantiation cycle?)"
        )
    raise HierarchyError(
        f"ambiguous root entity ({', '.join(sorted(roots))}); "
        "pass entity_name to select one"
    )


def build_hierarchy(
    program: ast.Program, entity_name: Optional[str] = None
) -> DesignHierarchy:
    """Resolve and check the instantiation tree rooted at ``entity_name``.

    With ``entity_name=None`` the root is inferred: the unique entity not
    instantiated by any architecture.  Raises
    :class:`~repro.errors.HierarchyError` for any structural fault, including
    instantiation cycles (reported with the offending entity path).
    """
    root = entity_name if entity_name is not None else _infer_root(program)
    hierarchy = DesignHierarchy(program=program, root=root)
    _visit(hierarchy, root, [])
    return hierarchy


def _visit(hierarchy: DesignHierarchy, name: str, visiting: List[str]) -> None:
    """Add the unit of ``name`` to ``hierarchy`` after those it instantiates.

    ``visiting`` is the path of entities from the root to ``name``'s parent,
    for the cycle check.
    """
    key = name.lower()
    if key in (n.lower() for n in visiting):
        cycle = visiting[visiting.index(next(v for v in visiting if v.lower() == key)):]
        raise HierarchyError("instantiation cycle: " + " -> ".join(cycle + [name]))
    if key in hierarchy.units:
        return
    visiting.append(name)
    unit = _unit_for(hierarchy.program, name)
    for instance in unit.instances:
        _visit(hierarchy, instance.entity, visiting)
    visiting.pop()
    hierarchy.units[key] = unit
    hierarchy.order.append(unit.name)
