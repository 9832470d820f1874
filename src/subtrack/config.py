"""Run configuration shared by the pipeline, benchmark runner and CLI."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from .errors import ValidationError

MODES = ("sst", "sst-lr")

# fields older config files still hold, ignored: the epoch trainer's knobs, the
# matching bandwidth (see rul), the k-means++ seed, the settings switch (the
# sensors are tracked at every K), the d training reads from the spectrum and
# the K it reads from the settings (see fit.cluster_regimes), the in-subspace
# weight it reads from the spectrum (see fit.noise_variance), and the healthy
# window and smoothing factor, constants since no run set another value
# (fit.HEALTHY_CYCLES, health.SMOOTHING)
RETIRED_FIELDS = frozenset(
    {"alpha", "eta", "max_epochs", "rel_tol", "beta", "seed", "include_settings",
     "subspace_dim", "n_regimes", "delta", "healthy_cycles", "smoothing"}
)

_TYPES = {  # annotation -> (accepts the value, what it takes); a bool is no int
    "str": (lambda v: type(v) is str, "a string"),
    "int": (lambda v: type(v) is int, "an int"),
}


@dataclass(frozen=True)
class RunConfig:
    mode: str = "sst"  # one of MODES
    tau1: int = 1
    tau2: int = 40

    def __post_init__(self):
        for f in fields(self):
            accepts, what = _TYPES[f.type]
            value = getattr(self, f.name)
            if not accepts(value):
                raise ValidationError(f"{f.name} must be {what}, got {value!r}")
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}")
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
