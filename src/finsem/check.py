"""The one record of a checked law, and of a suite of them."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Check:
    """One law checked over a stream of instances.

    mode says how the instances were chosen (exhaustive or sampled, with the
    seed), checked how many were looked at, and mismatches how many failed;
    witness describes the first failure and objects names the objects (as
    sizes, where the law ranges over several).
    """

    law: str
    mode: str
    checked: int
    mismatches: int
    witness: object = None
    objects: tuple = ()

    @property
    def ok(self):
        return self.mismatches == 0


def first_counterexample(law, verdicts, mode="exhaustive", objects=()):
    """The Check of a law over a stream with one verdict per instance.

    A verdict is None where the instance satisfies the law, an int n for a
    block of n instances that all do, and the witness text where one does
    not; the walk stops at the first witness.
    """
    checked = 0
    for verdict in verdicts:
        if verdict is None:
            checked += 1
        elif type(verdict) is int:
            checked += verdict
        else:
            return Check(law, mode, checked + 1, 1, verdict, objects)
    return Check(law, mode, checked, 0, None, objects)


@dataclass
class Report:
    """The Checks of one suite; seed is that of its sampling, if any."""

    name: str
    seed: Optional[int] = None
    cases: list = field(default_factory=list)

    @property
    def ok(self):
        return all(c.ok for c in self.cases)

    def checked_total(self):
        return sum(c.checked for c in self.cases)

    def summary(self):
        """The verdict with its instance count, then each failing case."""
        lines = [f"{self.name}: {'PASS' if self.ok else 'FAIL'} "
                 f"({self.checked_total()} instances, seed {self.seed})"]
        lines += [f"  FAIL {c.law} on {c.objects} [{c.mode}]: {c.witness}"
                  for c in self.cases if not c.ok]
        return "\n".join(lines)

    def listing(self):
        """The name, then every case with its mark and any witness."""
        return "\n".join([f"{self.name}:"] + [
            f"  {'ok ' if c.ok else 'FAIL'} {c.law}" + (f"  [{c.witness}]" if c.witness else "")
            for c in self.cases])
