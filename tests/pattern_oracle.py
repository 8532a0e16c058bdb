"""The pattern enumerator that `canonical._substitutions` replaced, kept as
its reference oracle.  It builds each grouping of a rule's universal
variables as a `SubstitutionPattern` of (variable, class id or constant)
pairs; `substitutions` turns each into the map `_substitutions` must yield,
in the same order."""

from dataclasses import dataclass

from shychase.core import Constant


@dataclass(frozen=True)
class SubstitutionPattern:
    """Grouping of a rule's universal variables into equality classes or
    known constants; existential variables are left alone."""

    assignment: tuple  # pairs (Variable, Constant | int class id), class ids by first use

    def as_substitution(self) -> dict:
        """Variable-to-term map; each class is represented by its first member."""
        reps: dict = {}
        out: dict = {}
        for var, target in self.assignment:
            if isinstance(target, Constant):
                out[var] = target
            else:
                out[var] = reps.setdefault(target, var)
        return out


def _assignments(variables: list, constants: list):
    """All maps var -> equality class or constant, classes in restricted
    growth order (a new class id is one past the largest id used so far)."""

    def rec(i, classes, current):
        if i == len(variables):
            yield SubstitutionPattern(tuple(current))
            return
        v = variables[i]
        for k in range(1, classes + 1):
            current.append((v, k))
            yield from rec(i + 1, classes, current)
            current.pop()
        current.append((v, classes + 1))
        yield from rec(i + 1, classes + 1, current)
        current.pop()
        for c in constants:
            current.append((v, c))
            yield from rec(i + 1, classes, current)
            current.pop()

    yield from rec(0, 0, [])


def substitutions(variables: list, constants: list) -> list:
    """The oracle's substitutions, in enumeration order."""
    return [pattern.as_substitution() for pattern in _assignments(variables, constants)]
