"""Training and pipeline configuration with reference hyperparameter defaults."""

from __future__ import annotations

import codecs
import io
import math
from dataclasses import dataclass, field, fields, replace

ACTIVATIONS = ("relu", "identity", "tanh")
METRICS = ("csls", "l2")
CANDIDATE_MODES = ("test", "all")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class OptimizerConfig:
    """Embedding-learning hyperparameters.

    Defaults follow the reference configuration (dim 300, 2 GCN layers,
    5 negatives, bias 2, batch 512, AMSGrad with lr 1e-3).  `desk_scale`
    shrinks dim and batch so the full pipeline runs in minutes.
    """

    dim: int = 300
    gcn_layers: int = 2
    activation: str = "relu"
    neg_samples: int = 5
    context_radius: int = 5
    bias_b: float = 2.0
    batch_size: int = 512
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epochs: int = 100
    min_freq: int = 5
    use_kg_loss: bool = True
    use_text_loss: bool = True

    def __post_init__(self):
        for name in ("dim", "neg_samples", "context_radius", "batch_size",
                     "min_freq"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("gcn_layers", "epochs"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for name in ("lr", "bias_b"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and > 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("beta1/beta2 must lie in [0, 1)")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if not (self.use_kg_loss or self.use_text_loss):
            raise ConfigError("cannot disable both KG and text losses")

    @classmethod
    def desk_scale(cls, **overrides) -> "OptimizerConfig":
        """Small-dimension profile for minute-scale end-to-end runs.

        Besides shrinking dim and batch, it uses a single GCN layer with
        more negatives and a higher learning rate: independently trained
        deep spaces lose orthogonal alignability at this scale, and the
        shallower encoder keeps the two spaces Procrustes-compatible.
        """
        defaults = dict(dim=32, batch_size=64, epochs=300,
                        gcn_layers=1, neg_samples=10, lr=0.003)
        defaults.update(overrides)
        return cls(**defaults)


# type of each config-file key: every OptimizerConfig field but the
# ablation switches
_TYPES = {f.name: type(f.default) for f in fields(OptimizerConfig)
          if not isinstance(f.default, bool)}


# Bytes of a file checked as UTF-8 at a time.
UTF8_PIECE = 1 << 16


def open_text(path) -> io.TextIOWrapper:
    """The lines of UTF-8 file `path`, as `open(path, encoding="utf-8")`
    reads them, from one read of its bytes; a byte that is not UTF-8
    raises a ValueError with the file and line.  The bytes are checked
    in pieces, so no text copy of the whole file is made.  Every input
    file is read through here."""
    with open(path, "rb") as fh:
        data = fh.read()
    decoder = codecs.getincrementaldecoder("utf-8")()
    view = memoryview(data)
    try:
        for start in range(0, len(data), UTF8_PIECE):
            decoder.decode(view[start:start + UTF8_PIECE])
        decoder.decode(b"", final=True)
    except UnicodeDecodeError:
        try:                         # the whole file, for the byte's line
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = data.count(b"\n", 0, exc.start) + 1
            raise ValueError(f"{path}: line {lineno}: byte "
                             f"{data[exc.start:exc.end]!r} is not UTF-8"
                             ) from None
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=None)


def read_fields(path, expected: str):
    """Yield (line number, fields) of each non-blank line of tab-separated
    file `path`, whose lines have the fields named in `expected`, such as
    `source<TAB>target`.  A line with another number of fields, or with an
    empty field, raises a ValueError with the file and line."""
    n_fields = expected.count("<TAB>") + 1
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != n_fields or not all(parts):
                raise ValueError(f"{path}: line {lineno}: expected `{expected}`")
            yield lineno, parts


def parse_config_file(path) -> dict:
    """Parse `key = value` lines; unknown and repeated keys are rejected."""
    values: dict = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: line {lineno}: expected key = value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _TYPES:
                raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{path}: line {lineno}: key {key!r} given twice")
            try:
                values[key] = _TYPES[key](value)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}: line {lineno}: bad value for {key}: {value!r}"
                ) from exc
    return values


def load_optimizer_config(path, base: OptimizerConfig) -> OptimizerConfig:
    values = parse_config_file(path)
    try:
        return replace(base, **values)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class NeighborQuery:
    """Nearest-neighbor retrieval settings for alignment and inference."""

    metric: str = "csls"
    csls_k: int = 10

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}")
        if self.csls_k < 1:
            raise ConfigError("csls_k must be >= 1")


def _option(default, option: str, choices=None):
    """A PipelineConfig field that CLI `option` sets, to one of `choices`
    if given."""
    return field(default=default,
                 metadata={"option": option, "choices": choices})


@dataclass(frozen=True)
class PipelineConfig:
    """Full-pipeline settings: the training config plus the align and
    evaluate settings and ablation switches.  Every subcommand validates
    its settings here, and the CLI builds the option of each setting
    declared with `_option` from its field.  The align and evaluate
    functions take their defaults from these fields, which take the
    neighbor query's from NeighborQuery."""

    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig.desk_scale)
    metric: str = _option(NeighborQuery.metric, "--metric", METRICS)
    csls_k: int = _option(NeighborQuery.csls_k, "--csls-k")
    stop_fraction: float = _option(0.01, "--stop-frac")
    max_iterations: int = _option(50, "--max-iterations")
    lexeme_top_f: int = _option(10000, "--top-f")
    seed_fraction: float = _option(0.3, "--seed-frac")
    no_self_learning: bool = False
    use_seed_lexicon: bool = False
    eval_p: int = _option(10, "--p")
    candidate_mode: str = _option("test", "--candidates", CANDIDATE_MODES)

    def __post_init__(self):
        if not (0 < self.stop_fraction <= 1):
            raise ConfigError("stop_fraction must lie in (0, 1]")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if not (0 < self.seed_fraction < 1):
            raise ConfigError("seed_fraction must lie in (0, 1)")
        if self.candidate_mode not in CANDIDATE_MODES:
            raise ConfigError(f"unknown candidate mode {self.candidate_mode!r}")
        if self.lexeme_top_f < 0:
            raise ConfigError("lexeme_top_f must be >= 0")
        if self.eval_p < 1:
            raise ConfigError("eval_p must be >= 1")
        self.neighbor_query()  # validates metric and csls_k

    def neighbor_query(self) -> NeighborQuery:
        return NeighborQuery(metric=self.metric, csls_k=self.csls_k)
