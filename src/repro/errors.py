"""Exception hierarchy for the repro package.

Every subsystem raises a subclass of :class:`ReproError` so that callers can
catch library failures without masking genuine Python bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class IsaError(ReproError):
    """Malformed instruction, register name, or operand."""


class LexError(ReproError):
    """Invalid token in mini-C source."""

    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.line = line
        self.col = col


class ParseError(ReproError):
    """Syntax error in mini-C source."""

    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.line = line
        self.col = col


class TypeCheckError(ReproError):
    """Semantic / type error in mini-C source."""

    def __init__(self, message: str, line: int = 0) -> None:
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class CodegenError(ReproError):
    """The compiler could not lower an AST construct."""


class LinkError(ReproError):
    """Symbol resolution or image layout failure."""


class MachineError(ReproError):
    """Runtime fault in the simulated machine."""


class MemoryFault(MachineError):
    """Access outside any mapped segment, or misaligned access."""

    def __init__(self, address: int, message: str = "unmapped address") -> None:
        super().__init__(f"{message}: 0x{address:x}")
        self.address = address


class IllegalInstruction(MachineError):
    """Fetch from a non-text address or an undecodable word."""


class DivisionByZero(MachineError):
    """Integer division or modulo by zero in the simulated program."""


class SimulatedCrash(MachineError):
    """The run was killed mid-flight by an injected fault (FaultPlan)."""


class KernelError(ReproError):
    """Loader, heap, or signal-dispatch failure."""


class OutOfMemory(KernelError):
    """The simulated heap or arena is exhausted."""


class CollectError(ReproError):
    """Bad collect configuration (counter names, intervals, limits)."""


class WatchdogExpired(CollectError):
    """A runaway run blew through the configured cycle/instruction deadline."""


class ExperimentError(ReproError):
    """Experiment directory is missing, corrupt, or incomplete."""


class ExperimentCorrupt(ExperimentError):
    """Experiment data failed validation (bad manifest, malformed events).

    Carries the offending file and line when known so salvage tooling can
    point at the damage.
    """

    def __init__(self, message: str, file: str = "", line: int = 0) -> None:
        where = f"{file}:{line}: " if file and line else (f"{file}: " if file else "")
        super().__init__(f"{where}{message}")
        self.file = file
        self.line = line


class AnalysisError(ReproError):
    """Data reduction or report generation failure."""


class ProgramMismatch(AnalysisError, ValueError):
    """Reductions, or a reduction and a program image, over different
    programs (a ``ValueError`` too, as merges raised before this class)."""


class FleetError(ReproError):
    """Fleet ingestion / aggregation service failure."""


class SpoolError(FleetError):
    """Bad submission or spool-protocol violation."""


class StoreCorrupt(FleetError):
    """Aggregate store failed validation (WAL, ledger, or payload damage)."""


class IngestTimeout(FleetError):
    """One experiment's ingest blew through its wall-clock deadline."""


class RetriesExhausted(FleetError):
    """A retried operation failed on its final attempt.

    Carries the last underlying error so quarantine records can name the
    root cause.
    """

    def __init__(self, message: str, last_error: Exception = None) -> None:
        super().__init__(message)
        self.last_error = last_error


class WorkloadError(ReproError):
    """MCF instance generation or solution validation failure."""


class AutotuneError(ReproError):
    """PGO search driver failure (bad journal, config mismatch, damaged
    baseline profile)."""


class UnsupportedTransform(AutotuneError):
    """A candidate transform the workload adapter cannot apply (e.g. a
    struct split, which needs member-access rewriting).  The search
    journals the candidate as unsupported and moves on."""
