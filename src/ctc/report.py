"""Check reports with a byte-deterministic JSON rendering.

The JSON form carries exactly the fields ``check``, ``status``, and
``witness`` per item, serialized with sorted keys and no whitespace, so
identical inputs produce identical bytes no matter how the checks were
scheduled.  Elapsed times are kept on the items for the human-readable
text rendering only.
"""

from __future__ import annotations

import json

__all__ = ["Item", "Report"]

_STATUS = ("pass", "fail", "error")


class Item:
    __slots__ = ("check", "status", "witness", "elapsed")

    def __init__(self, check: str, status: str, witness=None, elapsed: float = 0.0):
        if status not in _STATUS:
            raise ValueError("bad status %r" % (status,))
        self.check = check
        self.status = status
        self.witness = witness
        self.elapsed = elapsed

    def _fields(self) -> tuple:
        return (self.check, self.status, self.witness, self.elapsed)

    def __eq__(self, other):
        if other.__class__ is not Item:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return "Item(%r, %r, %r, %r)" % self._fields()


class Report:
    __slots__ = ("items",)

    def __init__(self):
        self.items: list[Item] = []

    def __eq__(self, other):
        if other.__class__ is not Report:
            return NotImplemented
        return self.items == other.items

    def __repr__(self):
        return "Report(%r)" % (self.items,)

    @property
    def ok(self) -> bool:
        return all(item.status == "pass" for item in self.items)

    @property
    def exit_code(self) -> int:
        if any(item.status == "error" for item in self.items):
            return 2
        if any(item.status == "fail" for item in self.items):
            return 1
        return 0

    def append(self, check: str, status: str, witness=None, elapsed: float = 0.0):
        self.items.append(Item(check, status, witness, elapsed))

    def refuse(self, check: str, exc: Exception):
        """Append one ``error`` item for the typed refusal ``exc``, witnessed
        by its type's name and its message."""
        self.append(check, "error", witness={"type": type(exc).__name__, "message": str(exc)})

    def extend(self, other: "Report"):
        self.items.extend(other.items)

    def failing(self) -> list[Item]:
        return [i for i in self.items if i.status != "pass"]

    def to_json_bytes(self) -> bytes:
        payload = {
            "items": [
                {"check": i.check, "status": i.status, "witness": i.witness}
                for i in self.items
            ]
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()

    def to_text(self) -> str:
        lines = []
        width = max((len(i.check) for i in self.items), default=0)
        for i in self.items:
            line = "%-*s  %-5s  %7.1f ms" % (width, i.check, i.status, i.elapsed * 1000)
            if i.witness is not None and i.status != "pass":
                line += "\n    witness: %s" % json.dumps(i.witness, sort_keys=True)
            lines.append(line)
        tally = "%d checks, %d failed, %d errored" % (
            len(self.items),
            sum(1 for i in self.items if i.status == "fail"),
            sum(1 for i in self.items if i.status == "error"),
        )
        lines.append(tally)
        return "\n".join(lines)
