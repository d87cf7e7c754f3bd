"""Exception taxonomy and the process exit codes the CLI maps it to."""

EXIT_OK = 0
EXIT_UNKNOWN = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL = 4


class RedkitError(Exception):
    """Base class for all package errors."""

    exit_code = EXIT_INTERNAL


class ContractError(RedkitError):
    """An operation was called with arguments that violate its contract."""

    exit_code = EXIT_USAGE


class StructuralError(RedkitError):
    """A network breaks a structural requirement (cycle, bad arity, not sequential)."""

    exit_code = EXIT_UNSUPPORTED


class UnsupportedModelError(RedkitError):
    """A model file uses operations outside the supported subset."""

    exit_code = EXIT_UNSUPPORTED

    def __init__(self, message: str, nodes: list | None = None):
        super().__init__(message)
        self.nodes = list(nodes) if nodes else []


class ParseError(RedkitError):
    """A property, center or sidecar file could not be parsed; the message says where."""

    exit_code = EXIT_USAGE


class GenerationError(RedkitError):
    """Requested random network is infeasible under the given parameters."""

    exit_code = EXIT_USAGE


class InternalInvariantError(RedkitError):
    """An internal invariant was violated; indicates a bug, not bad input."""

    exit_code = EXIT_INTERNAL
