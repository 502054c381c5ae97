"""Exception hierarchy for the :mod:`repro` library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to distinguish configuration mistakes from infeasible
problem instances or mechanism-protocol violations.
"""

from __future__ import annotations

import struct
import zipfile
import zlib
from contextlib import contextmanager
from typing import Iterator


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError, ValueError):
    """A parameter or configuration value is malformed or out of range."""


class CorruptInputError(ConfigurationError):
    """An input file (event log, saved instance) cannot be decoded: it
    is truncated, bit-flipped or of a foreign format.

    A :class:`ConfigurationError`, hence a ``ValueError``: callers that
    catch either keep working.
    """


class InfeasibleInstanceError(ReproError):
    """A DRP instance violates a structural requirement.

    Examples: a primary object larger than its primary server's capacity,
    a disconnected topology, or a negative request count.
    """


#: What a truncated, bit-flipped or foreign input file can make a
#: decoder (zip/zlib/npy, struct unpacking, JSON, event construction)
#: raise.  ``OSError`` covers bad seeks into a mangled archive and
#: ``RuntimeError`` a member that claims to be encrypted.
DECODE_ERRORS = (
    ValueError,
    TypeError,
    KeyError,
    AttributeError,
    IndexError,
    OverflowError,
    EOFError,
    OSError,
    RuntimeError,
    struct.error,
    zipfile.BadZipFile,
    zlib.error,
)


@contextmanager
def decoding(path: object) -> Iterator[None]:
    """Re-raise any decoding failure inside the block as one
    :class:`CorruptInputError` naming ``path``.

    A missing file (``FileNotFoundError``), an already-typed
    :class:`CorruptInputError` and the domain errors of a file that
    decoded fine (e.g. :class:`InfeasibleInstanceError`) pass through.
    """
    try:
        yield
    except (CorruptInputError, FileNotFoundError):
        raise
    except DECODE_ERRORS as exc:
        raise CorruptInputError(f"{path}: {exc}") from exc


class CapacityError(ReproError):
    """An operation would exceed a server's residual storage capacity."""


class MechanismProtocolError(ReproError):
    """The mechanism message protocol was violated.

    Raised e.g. when an agent bids for an object outside its eligible
    list, or when a payment is issued to a non-winning agent.
    """


class ConvergenceError(ReproError):
    """An iterative algorithm failed to converge within its budget."""


class InvariantViolationError(ReproError):
    """An online safety invariant was violated during a strict run.

    Raised by :class:`repro.runtime.invariants.InvariantMonitor` when a
    check fails under ``strict=True``; the violating
    :class:`~repro.obs.events.InvariantEvent` has already been emitted
    into the active sink when this propagates.
    """
