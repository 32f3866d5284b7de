"""Flattening elaboration of hierarchical designs.

Flattening replaces every component instantiation with a renamed copy of the
instantiated architecture's concurrent statements:

* a formal port occurrence becomes the bound actual (itself renamed into the
  parent's flat namespace),
* every internal signal, variable and process of an instance is prefixed with
  the instance label (``u3__acc``), composing across nesting levels
  (``bank1__u3__acc``),
* block statements are spliced and their declarations hoisted first, exactly
  as flat elaboration would do, so the flat process order equals the
  normalised traversal order of the hierarchy.

The result is an ordinary single-architecture :class:`~repro.vhdl.ast.Program`
that the flat plan analyses as-is.  :func:`flatten_source` pretty-prints it,
which is what ``vhdl-ifa analyze --flatten`` feeds back through the pipeline.

This is the *oracle* for the linked plan: ``docs/hierarchy.md`` and the
equivalence tests pin its documents byte-identical to the analysis of the
flattened program.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple, Union

from repro.hier.structure import (
    DesignHierarchy,
    HierarchyUnit,
    Instance,
    build_hierarchy,
)
from repro.vhdl import ast, pretty
from repro.vhdl.clone import clone_declaration, clone_statement, clone_statements

Rename = Callable[[str], str]


def _identity(name: str) -> str:
    return name


def instance_rename(instance: Instance, parent_rename: Rename) -> Rename:
    """The flat-namespace rename for names inside ``instance``'s entity.

    A formal port maps to its actual (renamed by the *parent*); every other
    name — internal signals, variables, even already-prefixed names from
    deeper instances — is prefixed with the instance label and then renamed by
    the parent, so prefixes accumulate outwards across nesting levels.

    The summary linker uses the same composition, which is what keeps the two
    routes' namespaces identical.
    """
    bindings = dict(instance.bindings)
    label = instance.label

    def rename(name: str) -> str:
        actual = bindings.get(name)
        if actual is not None:
            return parent_rename(actual)
        return parent_rename(f"{label}__{name}")

    return rename


def _rename_leaf(
    stmt: Union[ast.ProcessStatement, ast.ConcurrentAssign],
    rename: Rename,
    prefix: str,
) -> ast.ConcurrentStatement:
    if isinstance(stmt, ast.ConcurrentAssign):
        return ast.ConcurrentAssign(
            position=stmt.position,
            assignment=clone_statement(stmt.assignment, rename),
        )
    return ast.ProcessStatement(
        position=stmt.position,
        name=prefix + stmt.name,
        declarations=[clone_declaration(d, rename) for d in stmt.declarations],
        body=clone_statements(stmt.body, rename),
        sensitivity=tuple(rename(name) for name in stmt.sensitivity),
    )


def _expand(
    hierarchy: DesignHierarchy,
    unit: HierarchyUnit,
    rename: Rename,
    prefix: str,
) -> Tuple[List[ast.Declaration], List[ast.ConcurrentStatement]]:
    """Renamed signal declarations and concurrent leaves of one subtree.

    Declarations come out as the unit's own (hoisted) declarations followed by
    each instance subtree's, in item order; leaves come out in normalised item
    order with instance bodies spliced in place.
    """
    declarations: List[ast.Declaration] = [
        clone_declaration(decl, rename) for decl in unit.signals
    ]
    declarations.extend(
        clone_declaration(decl, rename) for decl in unit.other_declarations
    )
    leaves: List[ast.ConcurrentStatement] = []
    for item in unit.items:
        if isinstance(item, Instance):
            child = hierarchy.unit_of(item.entity)
            child_rename = instance_rename(item, rename)
            child_prefix = prefix + item.label + "__"
            child_decls, child_leaves = _expand(
                hierarchy, child, child_rename, child_prefix
            )
            declarations.extend(child_decls)
            leaves.extend(child_leaves)
        else:
            leaves.append(_rename_leaf(item, rename, prefix))
    return declarations, leaves


def flatten_hierarchy(hierarchy: DesignHierarchy) -> ast.Program:
    """Flatten a resolved hierarchy into a single-architecture program."""
    root = hierarchy.root_unit
    declarations, leaves = _expand(hierarchy, root, _identity, "")
    architecture = ast.Architecture(
        position=root.architecture.position,
        name=root.architecture.name,
        entity_name=root.entity.name,
        declarations=declarations,
        body=leaves,
    )
    return ast.Program(entities=[root.entity], architectures=[architecture])


def flatten_program(
    program: ast.Program, entity_name: Optional[str] = None
) -> ast.Program:
    """Flatten ``program`` into an equivalent single-architecture program.

    ``entity_name`` selects the hierarchy root (inferred when ``None``).
    Raises :class:`~repro.errors.HierarchyError` for structural faults.
    """
    return flatten_hierarchy(build_hierarchy(program, entity_name))


def flatten_source(program: ast.Program, entity_name: Optional[str] = None) -> str:
    """Flatten ``program`` and render the result as VHDL1 source text."""
    return pretty.format_program(flatten_program(program, entity_name))
