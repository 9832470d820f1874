"""Run configuration shared by the pipeline, benchmark runner and CLI."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from .errors import ValidationError

# knobs of the retired epoch trainer, still held by older config files
RETIRED_FIELDS = frozenset({"alpha", "eta", "max_epochs", "rel_tol"})


@dataclass(frozen=True)
class RunConfig:
    mode: str = "sst"  # "sst" or "sst-lr"
    n_regimes: int = 1
    subspace_dim: int = 3
    delta: float = 0.01
    healthy_cycles: int = 20
    tau1: int = 1
    tau2: int = 40
    beta: float = 0.0235
    smoothing: float = 0.3
    seed: int = 0
    # None: track all features for single-regime runs, sensors only otherwise
    include_settings: bool | None = None

    def __post_init__(self):
        if self.mode not in ("sst", "sst-lr"):
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.n_regimes < 1:
            raise ValidationError("n_regimes must be >= 1")
        if self.healthy_cycles < self.subspace_dim + 1:
            raise ValidationError("healthy_cycles must be >= subspace_dim + 1")
        if not 0.0 < self.smoothing <= 1.0:
            raise ValidationError("smoothing must be in (0, 1]")

    @property
    def track_settings(self) -> bool:
        if self.include_settings is None:
            return self.n_regimes == 1
        return self.include_settings

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        doc = {k: v for k, v in doc.items() if k not in RETIRED_FIELDS}
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ValidationError(f"unknown config fields: {sorted(unknown)}")
        return cls(**doc)
