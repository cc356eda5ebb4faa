"""Output checks, each counted as an operation that can fail."""

from __future__ import annotations


class Checks:
    """Operations attempted and failed, with a note for each kind of failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        return self.count(1, 0 if ok else 1, what) == 0

    def count(self, attempted: int, failed: int, what: str) -> int:
        """Record ``attempted`` operations of which ``failed`` went wrong."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what} ({failed} of {attempted})" if attempted > 1 else what)
        return failed
