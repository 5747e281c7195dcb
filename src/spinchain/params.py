"""Physical parameters of the anisotropic spin chain and derived constants.

Natural units are the default (hbar = mu = 1); every downstream formula is
dimensionless under that choice. The anisotropy A enters most of the
quasi-exact machinery only through

    a = sqrt(A / (2 hbar^2)),

which requires A > 0 (easy-plane regime). Construction deliberately does
not reject A <= 0: the in-plane reduction has no anisotropy term and must
still run. Operations that actually need `a` raise DomainError lazily.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import DomainError


@dataclass(frozen=True)
class PhysicalParams:
    """Anisotropy A, transverse field B, gyromagnetic ratio mu and hbar, as floats.

    B and mu only ever appear through the product mu*B, so no convention
    for their individual normalization is imposed.
    """

    A: float
    B: float = 0.0
    mu: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        for field in fields(self):
            v = float(getattr(self, field.name))
            object.__setattr__(self, field.name, v)
            if not math.isfinite(v):
                raise DomainError(f"{field.name} must be finite, got {v!r}")
        if self.hbar <= 0:
            raise DomainError(f"hbar must be positive, got {self.hbar!r}")
        # every formula divides by hbar^2 (Python's float ** raises on overflow)
        if not 2.0**-1022 <= self.hbar * self.hbar < math.inf:
            raise DomainError(f"hbar^2 must be a finite normal float, got hbar = {self.hbar!r}")

    @property
    def a(self) -> float:
        """sqrt(A/(2 hbar^2)); only defined in the easy-plane regime A > 0."""
        if self.A <= 0:
            raise DomainError(
                f"a = sqrt(A/(2 hbar^2)) requires A > 0, got A = {self.A!r}"
            )
        a = math.sqrt(self.A / (2.0 * self.hbar**2))
        if not math.isfinite(a):
            raise DomainError(f"a overflows for A = {self.A!r}, hbar = {self.hbar!r}")
        return a

    @property
    def muB(self) -> float:
        """mu*B; raises DomainError where the product overflows."""
        mub = self.mu * self.B
        if not math.isfinite(mub):
            raise DomainError(f"mu*B overflows for mu = {self.mu!r}, B = {self.B!r}")
        return mub

    @property
    def q_offplane(self) -> float:
        """Mathieu parameter of the off-plane reduction, -A/(32 hbar^2)."""
        return -self.A / (32.0 * self.hbar**2)

    @property
    def q_inplane(self) -> float:
        """Mathieu parameter of the in-plane reduction, mu*B/(4 hbar^2)."""
        return self.muB / (4.0 * self.hbar**2)


make_params = PhysicalParams  # the record's public alias


def read_params_file(path: str) -> dict[str, float]:
    """Parse a plain `key = value` parameter file.

    Blank lines and lines starting with '#' are ignored. The keys are the
    fields of PhysicalParams; unknown keys raise DomainError so typos do not
    pass silently.
    """
    values: dict[str, float] = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise DomainError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
                key, _, val = line.partition("=")
                key = key.strip()
                if key not in {field.name for field in fields(PhysicalParams)}:
                    raise DomainError(f"{path}:{lineno}: unknown parameter {key!r}")
                try:
                    values[key] = float(val.strip())
                except ValueError as exc:
                    raise DomainError(f"{path}:{lineno}: bad number {val.strip()!r}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text: {exc}") from None
    return values
