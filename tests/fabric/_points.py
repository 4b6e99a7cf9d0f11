"""Synthetic points shared by the fabric tests.

A real module (not a test file) so fork-spawned worker processes can
unpickle them by reference: both the thread-mode unit tests and the
multi-process chaos battery ship these over the wire.
"""

from dataclasses import dataclass
from typing import ClassVar

from repro.runner.simpoint import SimPoint


@dataclass(frozen=True)
class OkPoint(SimPoint):
    """Deterministic success: returns a payload derived from its token."""

    kind: ClassVar[str] = "fabric_ok"
    token: str
    delay_s: float = 0.0

    def execute(self):
        if self.delay_s:
            import time

            time.sleep(self.delay_s)
        return {"token": self.token, "squared": len(self.token) ** 2}

    def describe(self):
        return f"ok:{self.token}"


@dataclass(frozen=True)
class FailPoint(SimPoint):
    """Always raises — a deterministic poison point."""

    kind: ClassVar[str] = "fabric_fail"
    token: str

    def execute(self):
        raise ValueError(f"poison {self.token}")

    def describe(self):
        return f"fail:{self.token}"


def _refuse_unpickling(token: str):
    raise ValueError(f"cannot unpickle {token}")


@dataclass(frozen=True)
class UnpicklablePoint(SimPoint):
    """Pickles fine, but raises when a worker unpickles it."""

    kind: ClassVar[str] = "fabric_unpicklable"
    token: str

    def __reduce__(self):
        return _refuse_unpickling, (self.token,)

    def execute(self):
        return {"token": self.token}

    def describe(self):
        return f"unpicklable:{self.token}"


@dataclass(frozen=True)
class FlakyPoint(SimPoint):
    """Raises on its first ``fails`` executions, then succeeds.

    Each execution leaves one file in ``tally_dir``, so the count holds
    across pool processes and fabric workers alike.
    """

    kind: ClassVar[str] = "fabric_flaky"
    token: str
    fails: int
    tally_dir: str

    def execute(self):
        import os
        import uuid

        os.makedirs(self.tally_dir, exist_ok=True)
        open(os.path.join(self.tally_dir, uuid.uuid4().hex), "w").close()
        runs = len(os.listdir(self.tally_dir))
        if runs <= self.fails:
            raise RuntimeError(f"flaky {self.token} run {runs}")
        return {"token": self.token, "runs": runs}

    def describe(self):
        return f"flaky:{self.token}"
