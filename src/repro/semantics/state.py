"""Semantic stores: the local variable state ``σ`` and signal state ``ϕ``.

Following Section 3 ("Constructed semantic domains"):

* ``σ ∈ State = Var → Value`` — one per process;
* ``ϕ ∈ Signals = Sig → ({0, 1} ⇀ Value)`` — one per process, where index ``0``
  holds the *present* value (always defined) and index ``1`` the *active*
  value waiting one delta-cycle in the future (possibly undefined).

Initial values follow Section 3.2: scalars start as ``'U'`` and vectors as a
string of ``'U'`` of the declared width, unless the declaration provides an
initialiser.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.errors import SimulationError
from repro.vhdl import ast
from repro.vhdl.elaborate import Process, SignalInfo, VariableInfo
from repro.vhdl.stdlogic import StdLogic, StdLogicVector, Value


def default_value(type_node: ast.TypeNode) -> Value:
    """The uninitialised value of a type: ``'U'`` or ``"U…U"``."""
    if isinstance(type_node, ast.StdLogicVectorType):
        return StdLogicVector.uninitialized(type_node.width)
    return StdLogic("U")


class VariableStore:
    """The local variable state ``σ`` of one process."""

    def __init__(self, variables: Optional[Dict[str, VariableInfo]] = None):
        self._values: Dict[str, Value] = {}
        for info in (variables or {}).values():
            self._values[info.name] = default_value(info.var_type)

    def names(self) -> Iterable[str]:
        """Declared variable names."""
        return self._values.keys()

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def read(self, name: str) -> Value:
        """``σ x``."""
        if name not in self._values:
            raise SimulationError(f"read of undeclared variable {name!r}")
        return self._values[name]

    def write(self, name: str, value: Value) -> None:
        """``σ[x ↦ v]`` (in place)."""
        if name not in self._values:
            raise SimulationError(f"write to undeclared variable {name!r}")
        self._values[name] = value

    def write_slice(self, name: str, left: int, right: int, value: Value) -> None:
        """``σ[x(z_i … z_j) ↦ v]`` for a ``downto`` slice."""
        current = self.read(name)
        if not isinstance(current, StdLogicVector):
            raise SimulationError(f"slice assignment to scalar variable {name!r}")
        if isinstance(value, StdLogic):
            value = StdLogicVector([value])
        self._values[name] = current.set_slice_downto(left, right, value)

    def snapshot(self) -> Dict[str, Value]:
        """A copy of the current mapping (values are immutable)."""
        return dict(self._values)


class SignalStore:
    """The signal state ``ϕ`` of one process (present and active values)."""

    def __init__(self, signals: Optional[Dict[str, SignalInfo]] = None):
        self._present: Dict[str, Value] = {}
        self._active: Dict[str, Value] = {}
        for info in (signals or {}).values():
            self._present[info.name] = default_value(info.sig_type)

    def names(self) -> Iterable[str]:
        """Declared signal names."""
        return self._present.keys()

    def __contains__(self, name: str) -> bool:
        return name in self._present

    # -- present values (ϕ s 0) ------------------------------------------------

    def present(self, name: str) -> Value:
        """``ϕ s 0`` — the present value."""
        if name not in self._present:
            raise SimulationError(f"read of undeclared signal {name!r}")
        return self._present[name]

    def set_present(self, name: str, value: Value) -> None:
        """Overwrite the present value (used by synchronisation and test benches)."""
        if name not in self._present:
            raise SimulationError(f"write to undeclared signal {name!r}")
        self._present[name] = value

    # -- active values (ϕ s 1) --------------------------------------------------

    def active(self, name: str) -> Optional[Value]:
        """``ϕ s 1`` — the active value, or ``None`` when undefined."""
        return self._active.get(name)

    def set_active(self, name: str, value: Value) -> None:
        """``ϕ[1][s ↦ v]`` — schedule a value for the next delta-cycle."""
        if name not in self._present:
            raise SimulationError(f"assignment to undeclared signal {name!r}")
        self._active[name] = value

    def set_active_slice(self, name: str, left: int, right: int, value: Value) -> None:
        """Schedule a slice update; unassigned positions keep the present value."""
        base = self._active.get(name, self._present[name])
        if not isinstance(base, StdLogicVector):
            raise SimulationError(f"slice assignment to scalar signal {name!r}")
        if isinstance(value, StdLogic):
            value = StdLogicVector([value])
        self._active[name] = base.set_slice_downto(left, right, value)

    def clear_active(self) -> None:
        """Forget all active values (after a synchronisation)."""
        self._active.clear()

    def active_signals(self) -> Dict[str, Value]:
        """All signals with a defined active value."""
        return dict(self._active)

    def is_active(self) -> bool:
        """The predicate ``active(ϕ)``: some signal has an active value."""
        return bool(self._active)

@dataclass
class ProcessState:
    """Runtime state of one process: its control point and its two stores."""

    process: Process
    variables: VariableStore
    signals: SignalStore
    program_counter: list = field(default_factory=list)
    """A stack of (statement list, index) continuations; empty means the body
    will restart from the beginning (processes repeat indefinitely)."""
    waiting: bool = False
    finished_iteration: bool = False
