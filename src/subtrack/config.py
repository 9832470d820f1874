"""Run configuration shared by the pipeline, benchmark runner and CLI."""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, fields

from .errors import ValidationError

MODES = ("sst", "sst-lr")

# fields older config files still hold, ignored: the epoch trainer's knobs, the
# matching bandwidth (see rul), the k-means++ seed, the settings switch (the
# sensors are tracked at every K), the d training reads from the spectrum and
# the K it reads from the settings (see fit.cluster_regimes)
RETIRED_FIELDS = frozenset(
    {"alpha", "eta", "max_epochs", "rel_tol", "beta", "seed", "include_settings",
     "subspace_dim", "n_regimes"}
)

_TYPES = {  # annotation -> (accepts the value, what it takes); a bool is no number
    "str": (lambda v: type(v) is str, "a string"),
    "int": (lambda v: type(v) is int, "an int"),
    "float": (lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
              "a finite number"),  # nan fails the comparison too
}


@dataclass(frozen=True)
class RunConfig:
    mode: str = "sst"  # one of MODES
    delta: float = 0.01
    healthy_cycles: int = 20
    tau1: int = 1
    tau2: int = 40
    smoothing: float = 0.3

    def __post_init__(self):
        for f in fields(self):
            accepts, what = _TYPES[f.type]
            value = getattr(self, f.name)
            if not accepts(value):
                raise ValidationError(f"{f.name} must be {what}, got {value!r}")
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}")
        if not self.delta > 0:
            raise ValidationError("delta must be > 0")
        if self.healthy_cycles < 1:
            raise ValidationError("healthy_cycles must be >= 1")
        if not 0.0 < self.smoothing <= 1.0:
            raise ValidationError("smoothing must be in (0, 1]")
        if not 0 <= self.tau1 <= self.tau2:
            raise ValidationError("need 0 <= tau1 <= tau2")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        doc = {k: v for k, v in doc.items() if k not in RETIRED_FIELDS}
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ValidationError(f"unknown config fields: {sorted(unknown)}")
        return cls(**doc)
