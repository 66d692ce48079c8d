"""Shared core types.

:class:`ReproError` is the base of every bad-input error the package
raises; the CLI reports one as a single line and exits 2.

:class:`Target` mirrors the paper's migration-flag encoding
(Section 3.2): 0 = x86 (do not migrate), 1 = ARM (software migration via
Popcorn), 2 = FPGA (hardware migration via XRT).
"""

from __future__ import annotations

import enum

__all__ = ["ReproError", "Target"]


class ReproError(Exception):
    """Bad input or misuse, reported to a CLI user as one line."""


class Target(enum.IntEnum):
    """Where a selected function executes."""

    X86 = 0
    ARM = 1
    FPGA = 2

    @property
    def isa(self) -> str:
        """The ISA string for CPU targets; raises for FPGA."""
        if self is Target.X86:
            return "x86_64"
        if self is Target.ARM:
            return "aarch64"
        raise ValueError("FPGA target has no CPU ISA")

    def __str__(self) -> str:
        return self.name.lower()
