"""Delta-cycle simulator implementing the transition systems of Tables 2 and 3.

Execution alternates between two phases, exactly as the paper's semantics:

* **[Handle non-waiting processes]** — every process that is not blocked at a
  ``wait`` statement executes its statements (Table 2) against its local
  variable store ``σ_i`` and signal store ``ϕ_i``; signal assignments only
  update the *active* slot ``ϕ_i s 1``.
* **[Active signals]** — once every process is blocked, if some signal is
  active anywhere (including the environment's drivers, the paper's process
  ``π``), the active values are resolved with ``fs`` and become the new
  *present* values in every process; a blocked process resumes when one of its
  waited-on signals changed value and its ``until`` condition evaluates to
  ``'1'``.

The environment is modelled by :meth:`Simulator.drive`: driving an ``in`` port
schedules an active value that participates in the next synchronisation, which
is exactly the behaviour of the paper's environment process ``π``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import SimulationError
from repro.semantics.expressions import evaluate_expression, is_true
from repro.semantics.state import ProcessState, SignalStore, VariableStore
from repro.vhdl import ast
from repro.vhdl.elaborate import Design, Process
from repro.vhdl.stdlogic import StdLogic, StdLogicVector, Value, resolve_values

#: Convenient input type for driving signals from Python: a value object, a
#: character such as ``'1'`` or a bit string such as ``"10110000"``.
Driveable = Union[Value, str, int]


@dataclass
class _Frame:
    """A continuation frame: a statement list and the next index to run."""

    statements: List[ast.Statement]
    index: int = 0


@dataclass
class _ProcessRuntime:
    """Mutable runtime data of one process."""

    process: Process
    variables: VariableStore
    signals: SignalStore
    frames: List[_Frame] = field(default_factory=list)
    waiting_on: Optional[ast.Wait] = None
    steps: int = 0

    @property
    def is_waiting(self) -> bool:
        return self.waiting_on is not None


@dataclass
class SimulationTrace:
    """Recorded observations: one entry of present values per delta cycle."""

    entries: List[Dict[str, Value]] = field(default_factory=list)

    def record(self, snapshot: Dict[str, Value]) -> None:
        """Append a snapshot of present values."""
        self.entries.append(snapshot)

    def __len__(self) -> int:
        return len(self.entries)


class Simulator:
    """Executable semantics of one elaborated design."""

    def __init__(
        self,
        design: Design,
        loop_processes: bool = True,
        max_steps_per_activation: int = 100_000,
    ):
        self._design = design
        self._loop = loop_processes
        self._max_steps = max_steps_per_activation
        self._env_active: Dict[str, Value] = {}
        self._delta_cycles = 0
        self.trace = SimulationTrace()

        self._runtimes: List[_ProcessRuntime] = []
        for process in design.processes:
            runtime = _ProcessRuntime(
                process=process,
                variables=VariableStore(process.variables),
                signals=SignalStore(design.signals),
            )
            runtime.frames.append(_Frame(process.body))
            self._initialize_declared_values(runtime)
            self._runtimes.append(runtime)

    # ------------------------------------------------------------------ setup

    def _initialize_declared_values(self, runtime: _ProcessRuntime) -> None:
        for info in runtime.process.variables.values():
            if info.initial is not None:
                value = evaluate_expression(
                    info.initial, runtime.variables, runtime.signals
                )
                runtime.variables.write(info.name, value)
        for info in self._design.signals.values():
            if info.initial is not None:
                value = evaluate_expression(
                    info.initial, runtime.variables, runtime.signals
                )
                runtime.signals.set_present(info.name, value)

    # --------------------------------------------------------------- inspection

    @property
    def delta_cycles(self) -> int:
        """Number of synchronisations performed so far."""
        return self._delta_cycles

    def read_signal(self, name: str) -> Value:
        """Present value of a signal (identical across processes after sync)."""
        if name not in self._design.signals:
            raise SimulationError(f"unknown signal {name!r}")
        return self._runtimes[0].signals.present(name)

    def read_variable(self, process_name: str, name: str) -> Value:
        """Current value of a process-local variable."""
        for runtime in self._runtimes:
            if runtime.process.name == process_name:
                return runtime.variables.read(name)
        raise SimulationError(f"unknown process {process_name!r}")

    def signal_snapshot(self) -> Dict[str, Value]:
        """Present values of every signal."""
        return {name: self.read_signal(name) for name in self._design.signals}

    # ----------------------------------------------------------------- stimulus

    def _coerce(self, name: str, value: Driveable) -> Value:
        info = self._design.signals[name]
        width = info.width
        if isinstance(value, (StdLogic, StdLogicVector)):
            return value
        if isinstance(value, int):
            if width is None:
                return StdLogic.from_bit(value)
            return StdLogicVector.from_unsigned(value, width)
        if isinstance(value, str):
            if width is None:
                return StdLogic(value)
            return StdLogicVector.from_string(value)
        raise SimulationError(f"cannot drive {name!r} with {value!r}")

    def validate_drive(self, name: str, value: Driveable) -> Value:
        """Check a stimulus without scheduling it; returns the coerced value.

        Raises :class:`SimulationError` for an unknown signal, a non-input
        port or a value that cannot be coerced to the port's type — letting
        callers validate a whole stimulus set up front, before any simulation
        work is done.
        """
        if name not in self._design.signals:
            raise SimulationError(f"unknown signal {name!r}")
        info = self._design.signals[name]
        if not info.is_input:
            raise SimulationError(f"signal {name!r} is not an input port")
        return self._coerce(name, value)

    def drive(self, name: str, value: Driveable) -> None:
        """Schedule an environment-driven value for an ``in`` port.

        The value becomes visible after the next synchronisation, like the
        assignments of the paper's environment process ``π``.
        """
        self._env_active[name] = self.validate_drive(name, value)

    # ----------------------------------------------------------------- execution

    def run(self, max_delta_cycles: int = 1_000) -> int:
        """Run until quiescent or ``max_delta_cycles`` synchronisations.

        Returns the number of delta cycles performed by this call.
        """
        performed = 0
        while performed < max_delta_cycles:
            self._run_processes()
            if not self._synchronize():
                break
            performed += 1
        return performed

    # -- phase 1: rule [Handle non-waiting processes] -------------------------------

    def _run_processes(self) -> None:
        for runtime in self._runtimes:
            self._run_single(runtime)

    def _run_single(self, runtime: _ProcessRuntime) -> None:
        steps = 0
        while not runtime.is_waiting:
            if not runtime.frames:
                if self._loop:
                    runtime.frames.append(_Frame(runtime.process.body))
                else:
                    return  # straight-line mode: the process simply stops
            if steps > self._max_steps:
                raise SimulationError(
                    f"process {runtime.process.name!r} exceeded "
                    f"{self._max_steps} steps without reaching a wait statement"
                )
            frame = runtime.frames[-1]
            if frame.index >= len(frame.statements):
                runtime.frames.pop()
                continue
            statement = frame.statements[frame.index]
            self._execute(runtime, frame, statement)
            steps += 1
        runtime.steps += steps

    def _execute(
        self, runtime: _ProcessRuntime, frame: _Frame, statement: ast.Statement
    ) -> None:
        if isinstance(statement, ast.Null):
            frame.index += 1
            return
        if isinstance(statement, ast.VariableAssign):
            value = evaluate_expression(
                statement.value, runtime.variables, runtime.signals
            )
            if statement.target_slice is None:
                runtime.variables.write(statement.target, value)
            else:
                left, right, _ = statement.target_slice
                runtime.variables.write_slice(statement.target, left, right, value)
            frame.index += 1
            return
        if isinstance(statement, ast.SignalAssign):
            value = evaluate_expression(
                statement.value, runtime.variables, runtime.signals
            )
            if statement.target_slice is None:
                runtime.signals.set_active(statement.target, value)
            else:
                left, right, _ = statement.target_slice
                runtime.signals.set_active_slice(statement.target, left, right, value)
            frame.index += 1
            return
        if isinstance(statement, ast.Wait):
            runtime.waiting_on = statement
            frame.index += 1
            return
        if isinstance(statement, ast.If):
            condition = evaluate_expression(
                statement.condition, runtime.variables, runtime.signals
            )
            frame.index += 1
            branch = statement.then_branch if is_true(condition) else statement.else_branch
            runtime.frames.append(_Frame(branch))
            return
        if isinstance(statement, ast.While):
            condition = evaluate_expression(
                statement.condition, runtime.variables, runtime.signals
            )
            if is_true(condition):
                runtime.frames.append(_Frame(statement.body))
            else:
                frame.index += 1
            return
        raise SimulationError(f"cannot execute statement {type(statement).__name__}")

    # -- phase 2: rule [Active signals] ------------------------------------------------

    def _synchronize(self) -> bool:
        drivers: Dict[str, List[Value]] = {}
        for runtime in self._runtimes:
            for name, value in runtime.signals.active_signals().items():
                drivers.setdefault(name, []).append(value)
        for name, value in self._env_active.items():
            drivers.setdefault(name, []).append(value)

        if not drivers:
            return False

        changed: Dict[int, set] = {index: set() for index in range(len(self._runtimes))}
        for name, values in drivers.items():
            resolved = resolve_values(values)
            for index, runtime in enumerate(self._runtimes):
                if runtime.signals.present(name) != resolved:
                    changed[index].add(name)
                runtime.signals.set_present(name, resolved)

        for runtime in self._runtimes:
            runtime.signals.clear_active()
        self._env_active.clear()

        for index, runtime in enumerate(self._runtimes):
            wait = runtime.waiting_on
            if wait is None:
                continue
            signal_changed = any(name in changed[index] for name in wait.signals)
            condition_true = True
            if wait.condition is not None:
                condition_true = is_true(
                    evaluate_expression(wait.condition, runtime.variables, runtime.signals)
                )
            if wait.signals and signal_changed and condition_true:
                runtime.waiting_on = None

        self._delta_cycles += 1
        self.trace.record(self.signal_snapshot())
        return True


def simulate(
    design: Design,
    inputs: Optional[Dict[str, Driveable]] = None,
    max_delta_cycles: int = 1_000,
) -> Dict[str, Value]:
    """Convenience driver: apply ``inputs``, run to quiescence, return outputs.

    ``inputs`` maps ``in`` port names to values (``'1'``, ``"1010"``, integers
    or value objects).  The returned dictionary contains the present value of
    every signal of the design after the run.
    """
    simulator = Simulator(design)
    simulator.run(max_delta_cycles)
    for name, value in (inputs or {}).items():
        simulator.drive(name, value)
    simulator.run(max_delta_cycles)
    return simulator.signal_snapshot()
