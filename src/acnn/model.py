"""Network assembly: declarative configs, parameter store, forward/backward
over one sentence or several packed ones, parameter counting, and checkpoint
serialization.

Architecture (fixed skeleton): embedding lookup -> dropout (training only) ->
three operator layers (layer 1 is auto-correlational in an acnn,
convolutional in a cnn; layers 2-3 always convolutional) each followed by
ReLU -> width-1 convolution -> row softmax over {fluent, disfluent}.

Each operator layer owns one or more kernel-size groups. Every group emits
channels/len(groups) output columns and the group outputs are stacked
column-wise, so `channels` is the layer's total output width. Inside the
auto-correlation operator the A-kernel and B-kernel terms are added
element-wise.

Each rule is stated where it lives: the group table in _groups, which
parameters are pair kernels in _is_pair_kernel, the one memory order of every
parameter, built or loaded, in _held, what an optimizer step updates in
Param.parts, kept folds in Model.with_kept_folds, and the checkpoint format in
save_checkpoint and load_checkpoint.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from . import layers as L
from .atomic import atomic_open
from .data import PAD_WORD, UNK_WORD
from .tensor import Rng

CLASS_DISFLUENT = 1
NUM_CLASSES = 2


class ConfigError(ValueError):
    pass


def _check_type(name: str, value, *kinds: type) -> None:
    # bool is an int subclass, but never a valid width, count or rate
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"{name} must be {' or '.join(k.__name__ for k in kinds)}, "
                          f"got {value!r}")


@dataclass(frozen=True)
class LayerConfig:
    kind: str  # "conv" | "autocorr"
    kernel_groups: tuple[tuple[int, int], ...]  # (ell, r) per group
    channels: int  # total output width, split evenly across groups

    def __post_init__(self):
        if self.kind not in ("conv", "autocorr"):
            raise ConfigError(f"unknown layer kind {self.kind!r}")
        if not self.kernel_groups:
            raise ConfigError("layer needs at least one kernel group")
        _check_type("channels", self.channels, int)
        if self.channels <= 0:
            raise ConfigError("channels must be positive")
        if self.channels % len(self.kernel_groups) != 0:
            raise ConfigError(
                f"channels {self.channels} not divisible by "
                f"{len(self.kernel_groups)} kernel groups")
        for ell, r in self.kernel_groups:
            _check_type("ell", ell, int)
            _check_type("r", r, int)
            try:
                L.ConvKernelSpec(ell, r)  # validates ell >= 0, r >= 1
            except ValueError as exc:
                raise ConfigError(str(exc)) from None

    @property
    def group_channels(self) -> int:
        return self.channels // len(self.kernel_groups)


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    embedding_dim: int
    dropout_rate: float
    l2_weight: float
    layers: tuple[LayerConfig, ...]
    seed: int = 0

    def __post_init__(self):
        for name in ("vocab_size", "embedding_dim", "seed"):
            _check_type(name, getattr(self, name), int)
        if self.vocab_size < 2 or self.embedding_dim < 1:
            raise ConfigError("vocab_size >= 2 and embedding_dim >= 1 required")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("dropout_rate", "l2_weight"):
            _check_type(name, getattr(self, name), int, float)
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if not 0.0 <= self.l2_weight < math.inf:
            raise ConfigError(f"l2_weight must be finite and >= 0, got {self.l2_weight}")
        if not self.layers:
            raise ConfigError("at least one operator layer required")
        if any(lc.kind == "autocorr" for lc in self.layers[1:]):
            raise ConfigError("autocorr is only supported at layer 1")

    @property
    def arch(self) -> str:
        """The architecture, read from layer 1: "acnn" when it is
        auto-correlational, "cnn" otherwise (the inverse of LAYER1_KIND)."""
        return "acnn" if self.layers[0].kind == "autocorr" else "cnn"

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        return ModelConfig(
            vocab_size=d["vocab_size"],
            embedding_dim=d["embedding_dim"],
            dropout_rate=d["dropout_rate"],
            l2_weight=d["l2_weight"],
            layers=tuple(
                LayerConfig(kind=lc["kind"],
                            kernel_groups=tuple(tuple(g) for g in lc["kernel_groups"]),
                            channels=lc["channels"])
                for lc in d["layers"]
            ),
            seed=d["seed"],
        )


def _is_pair_kernel(value: np.ndarray) -> bool:
    """Whether a parameter is a pair kernel: an autocorr B, the one tensor of
    shape (c, w, w, m) in _layout. Its gradient is symmetric, its Adam moments
    cover its pairs i <= j only (Param.of, Param.parts), and a checkpoint-built
    model keeps it read-only (Checkpoint.build_model)."""
    return value.ndim == 4


@dataclass
class Param:
    value: np.ndarray
    grad: np.ndarray
    # the value's shape, except for a pair kernel (see `of`)
    adam_m: np.ndarray
    adam_v: np.ndarray

    @staticmethod
    def of(value: np.ndarray) -> "Param":
        """The value taken over as it is, not copied, in its own memory order
        (a model's every A in the order _held gives it), except that a pair
        kernel is made C-contiguous, so that layers.pair_views and the views
        of `parts` are views. The gradient and moments take the value's
        order. A pair kernel keeps its Adam moments for its pairs i <= j only:
        one flat array of c * m * w(w+1)/2 floats, offset d's (c, w-d, m)
        block after offset d-1's, in the order of layers.pair_views. Its
        gradient is symmetric bit for bit, so the mirrored pairs' moments and
        step would equal their partners' bit for bit: training is
        byte-identical to keeping full moments."""
        moments = value.shape
        if _is_pair_kernel(value):
            value = np.ascontiguousarray(value)
            moments = (sum(upper.size for upper, _ in L.pair_views(value)),)
        # np.zeros maps no page before its first write, so tagging never pays
        # for these (np.zeros_like writes every page)
        order = "F" if value.flags.f_contiguous else "C"
        return Param(value=value,
                     grad=np.zeros(value.shape, order=order),
                     adam_m=np.zeros(moments, order=order),
                     adam_v=np.zeros(moments, order=order))

    def parts(self):
        """The (value, grad, m, v, mirror) views that an optimizer step
        updates, a part's step also moving its mirror: the whole tensor with
        no mirror, or for a pair kernel one part per offset d in
        layers.pair_views' order, its pairs (i, i + d) with their moment
        block and, for d > 0, the mirrored pairs (i + d, i)."""
        if not _is_pair_kernel(self.value):
            yield self.value, self.grad, self.adam_m, self.adam_v, None
            return
        lo = 0
        for d, ((upper, lower), (grad, _)) in enumerate(zip(L.pair_views(self.value),
                                                            L.pair_views(self.grad))):
            m, v = (a[lo:lo + upper.size].reshape(upper.shape) for a in (self.adam_m, self.adam_v))
            lo += upper.size
            yield upper, grad, m, v, lower if d else None


class ParamStore:
    """Named parameters with paired gradient and Adam moment buffers, made
    from a name -> value dict in one step (Param.of per value). Iteration
    order is the dict's and therefore deterministic."""

    def __init__(self, values: dict[str, np.ndarray]):
        self._params = {name: Param.of(value) for name, value in values.items()}

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def items(self):
        return self._params.items()

    def values_copy(self) -> dict[str, np.ndarray]:
        """A C-ordered copy of every value, which save_checkpoint writes as
        it is."""
        return {k: p.value.copy() for k, p in self._params.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        """All or nothing: every name, shape and write flag is checked before
        the first value is written."""
        if set(values) != set(self._params):
            raise ConfigError("parameter name mismatch while loading values")
        for k, v in values.items():
            if v.shape != self._params[k].value.shape:
                raise ConfigError(f"shape mismatch for parameter {k!r}")
            if not self._params[k].value.flags.writeable:
                raise ValueError(f"parameter {k!r} is read-only")
        for k, v in values.items():
            self._params[k].value[...] = v


def _uniform_init(rng: Rng, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, shape)


# Floats per block in which _held fills an A. Drawn or read whole and then
# reordered, an A's freed temporary left tag-cnn-long's peak_rss_mb at
# 120.0-120.3 MB, against 106.6-106.9 MB in these blocks (10 alternating
# `perfbench/run.py --seconds 3` runs each, BENCH_50.json), and a cnn-table1
# load's traced transient at 5.19 against 0.24 MB (TestHeldFill in
# tests/test_model.py).
_FILL_BLOCK = 1 << 15


def _held(shape: tuple[int, ...], fill) -> np.ndarray:
    """A new parameter of `shape` in the one memory order every model holds
    it in, whether Model.build draws it or load_checkpoint reads it: a window
    kernel A, (c, w, m), is held (m, w, c)-major, np.asfortranarray's order,
    so that the operand of kn2row's GEMMs, A.transpose(1, 0, 2).reshape(w *
    c, m), is a view (layers._kn2row); any other tensor C-ordered.
    fill(block_shape) gives the next leading-axis channels as a C-order array:
    an A's in blocks of whole channels of at most _FILL_BLOCK floats (or one
    channel), any other tensor's in one block, which is held as it is.

    A C-ordered A is copied whole by each forward and backward GEMM that
    reads it. Over the same values, alternating steps in one process, this
    order took a cnn-table1 forward from 30.2-33.0 to 26.6-28.0 ms and an
    acnn-table1 one from 19.0-20.8 to 18.5-19.7 ms (medians of 30, three
    runs), backward and Adam equal, with the same bytes (BENCH_46.json).
    With A in C order, tagging read tag-cnn-long at x0.73 and tag-acnn-long
    at x0.90 of this order's tokens/s (BENCH_45.json). One BLAS thread, a
    shared 2-vCPU x86 host."""
    if len(shape) != 3:
        return fill(shape)
    array = np.empty(shape, order="F")
    channels = max(1, _FILL_BLOCK // math.prod(shape[1:]))
    for u in range(0, shape[0], channels):
        array[u : u + channels] = fill(array[u : u + channels].shape)
    return array


@dataclass(frozen=True)
class _Group:
    """One kernel group of an operator layer: its spec, its output columns in
    the layer's output, and the names of the A, B and b it reads."""
    spec: L.ConvKernelSpec
    columns: slice
    A: str
    B: str | None  # None in a conv group
    b: str


def _groups(config: ModelConfig) -> list[list[_Group]]:
    """The group table: per operator layer, its kernel groups in order. The
    one place a group's tensors are named, `layerK.groupG.A` and so on."""
    layers = []
    for k, lc in enumerate(config.layers, start=1):
        gc, groups = lc.group_channels, []
        for g, (ell, r) in enumerate(lc.kernel_groups):
            prefix = f"layer{k}.group{g}"
            B = f"{prefix}.B" if lc.kind == "autocorr" else None
            groups.append(_Group(L.ConvKernelSpec(ell, r), slice(g * gc, (g + 1) * gc),
                                 f"{prefix}.A", B, f"{prefix}.b"))
        layers.append(groups)
    return layers


def _layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...], int, int]]:
    """(name, shape, fan_in, fan_out) per tensor in store order, the operator
    layers' from the group table; fan_in 0 marks a bias of ones."""
    table = [("embedding", (config.vocab_size, config.embedding_dim),
              config.vocab_size, config.embedding_dim)]
    # each operator layer's input width: the embedding's, then the layer before's
    in_dims = (config.embedding_dim, *(lc.channels for lc in config.layers))
    for lc, in_dim, groups in zip(config.layers, in_dims, _groups(config)):
        gc = lc.group_channels
        for group in groups:
            w = group.spec.width
            table.append((group.A, (gc, w, in_dim), w * in_dim, gc))
            if group.B:
                table.append((group.B, (gc, w, w, in_dim), w * w * in_dim, gc))
            table.append((group.b, (gc,), 0, 0))
    return table + [("output.W", (NUM_CLASSES, in_dims[-1]), in_dims[-1], NUM_CLASSES),
                    ("output.b", (NUM_CLASSES,), 0, 0)]


@dataclass
class _ForwardCache:
    ids: np.ndarray
    dropout_mask: np.ndarray | None
    # per layer, its output after ReLU: the next layer's (or width-1's) input
    # array itself, not a copy
    activations: list[np.ndarray]
    group_caches: list[list]             # per layer, per group forward caches


class Model:
    """A built network: config plus parameter store. Its group table
    (_groups) is built once, here, and the passes walk it. A model that keeps
    its folds (with_kept_folds) contracts each B through the fold it took
    when it was made; any other folds each B afresh in every forward call, so
    a training step, one pass, folds each B once. Both read layers.fold's
    blocks as it makes them."""

    def __init__(self, config: ModelConfig, params: ParamStore):
        self.config = config
        self.params = params
        self._groups = _groups(config)
        self._kept_folds: dict[str, list[np.ndarray]] | None = None

    @staticmethod
    def build(config: ModelConfig) -> "Model":
        """Allocate and initialize all parameters from Rng(config.seed), so a
        checkpoint's seed rebuilds its initial model. Weights are drawn from
        U(-b, b) with b = sqrt(6 / (fan_in + fan_out)) per tensor; biases start
        at 1."""
        rng = Rng(config.seed)
        # numpy draws one double per entry in order, so _held's blocks draw
        # the values of the whole tensor drawn at once
        return Model(config, ParamStore({
            name: _held(shape, lambda block: _uniform_init(rng, block, fan_in, fan_out)
                        if fan_in else np.ones(block))
            for name, shape, fan_in, fan_out in _layout(config)}))

    def with_kept_folds(self) -> "Model":
        """This model if it keeps its folds, else a Model over the same
        ParamStore that keeps each B's fold (layers.fold) as it is now: for
        several forward calls over values that do not change between them.
        The kept blocks are the ones a forward call without them folds, so the
        two give the same probabilities byte for byte."""
        if self._kept_folds is not None:
            return self
        model = Model(self.config, self.params)
        model._kept_folds = {group.B: L.fold(self.params[group.B].value)
                             for groups in self._groups for group in groups if group.B}
        return model

    def forward(self, token_ids, training: bool = False,
                rng: Rng | None = None, lengths=None) -> np.ndarray:
        """Class probabilities, one row per input token (see forward_with_cache
        for `lengths`)."""
        probs, _ = self.forward_with_cache(token_ids, training=training, rng=rng,
                                           lengths=lengths)
        return probs

    def forward_with_cache(self, token_ids, training: bool = False, rng: Rng | None = None,
                           lengths=None) -> tuple[np.ndarray, _ForwardCache]:
        """Probabilities and the cache for `backward`. `token_ids` may be several
        sentences stacked in order, of `lengths` tokens each (default: one
        sentence); each row then equals that of its sentence run on its own."""
        ids = np.asarray(token_ids, dtype=np.int64)
        if ids.ndim != 1 or len(ids) == 0:
            raise ValueError("token_ids must be a non-empty 1-d sequence")
        if ids.min() < 0 or ids.max() >= self.config.vocab_size:
            raise ValueError("token id out of vocabulary range")
        emb = self.params["embedding"].value[ids]
        x, mask = L.dropout(emb, self.config.dropout_rate, rng, training)
        kept = self._kept_folds or {}  # an autocorr call without its B's fold folds it
        activations, group_caches = [], []
        for groups in self._groups:
            cols, caches = [], []
            for group in groups:
                A, b = self.params[group.A].value, self.params[group.b].value
                if group.B:
                    out, cache = L.autocorr_forward(x, group.spec, A, self.params[group.B].value,
                                                    b, lengths, folded=kept.get(group.B))
                else:
                    out, cache = L.conv1d_forward(x, group.spec, A, b, lengths)
                cols.append(out)
                caches.append(cache)
            x = L.relu(cols[0] if len(cols) == 1 else np.concatenate(cols, axis=1))
            activations.append(x)
            group_caches.append(caches)
        scores = L.width1_forward(x, self.params["output.W"].value,
                                  self.params["output.b"].value)
        probs = L.softmax_rows(scores)
        T.ensure_finite(probs, "forward output")
        return probs, _ForwardCache(
            ids=ids, dropout_mask=mask, activations=activations,
            group_caches=group_caches)

    def backward(self, cache: _ForwardCache, dscores: np.ndarray) -> None:
        """Write the parameter gradients of one forward_with_cache call into
        the store, each of them complete and over whatever it held, so nothing
        zeroes them before a step. A B's is symmetric bit for bit
        (layers.autocorr_backward). The embedding's is the one gradient summed
        into: it is zeroed, and then each token's input gradient is added to
        its id's row."""
        dx, dW, db = L.width1_backward(cache.activations[-1],
                                       self.params["output.W"].value, dscores)
        self.params["output.W"].grad[...] = dW
        self.params["output.b"].grad[...] = db
        for groups, activation, caches in zip(self._groups[::-1], cache.activations[::-1],
                                              cache.group_caches[::-1]):
            # relu(y) > 0 exactly where y > 0, NaN included
            dy = L.relu_backward(activation, dx)
            dx = 0.0  # the layer's input gradient, summed over its groups
            for group, gcache in zip(groups, caches):
                upstream, A = dy[:, group.columns], self.params[group.A].value
                if group.B:
                    dxg, dA, dbg = L.autocorr_backward(gcache, A, upstream,
                                                       self.params[group.B].grad)
                else:
                    dxg, dA, dbg = L.conv1d_backward(gcache, A, upstream)
                self.params[group.A].grad[...] = dA
                self.params[group.b].grad[...] = dbg
                dx += dxg
        if cache.dropout_mask is not None:
            dx = dx * cache.dropout_mask
        # a repeated id sums its rows' gradients, and an absent id gets zero
        demb = self.params["embedding"].grad
        demb[...] = 0.0
        np.add.at(demb, cache.ids, dx)


@dataclass(frozen=True)
class ParamCountReport:
    entries: tuple[tuple[str, tuple[int, ...], int], ...]  # (name, shape, count) in store order

    @property
    def embedding(self) -> int:
        return sum(count for name, _, count in self.entries if name == "embedding")

    @property
    def network(self) -> int:
        return sum(count for name, _, count in self.entries if name != "embedding")

    @property
    def total(self) -> int:
        return self.embedding + self.network

    def format(self) -> str:
        lines = [f"{'tensor':<24}{'shape':<20}{'count':>12}"]
        for name, shape, count in self.entries:
            lines.append(f"{name:<24}{str(shape):<20}{count:>12,}")
        lines.append(f"{'embedding total':<44}{self.embedding:>12,}")
        lines.append(f"{'network total (non-embedding)':<44}{self.network:>12,}")
        lines.append(f"{'grand total':<44}{self.total:>12,}")
        return "\n".join(lines)


def param_count(params: ParamStore) -> ParamCountReport:
    return ParamCountReport(tuple((name, p.value.shape, int(p.value.size))
                                  for name, p in params.items()))


# ---------------------------------------------------------------------------
# Named presets
# ---------------------------------------------------------------------------

# architecture -> the kind of its layer 1; ModelConfig.arch reads it back
LAYER1_KIND = {"acnn": "autocorr", "cnn": "conv"}


# name -> the settings of a named architecture preset. `cnn-table1` /
# `acnn-table1` are the published full-scale configurations; `cnn-toy` /
# `acnn-toy` are matched desk-scale configs differing only in the first-layer
# operator.
_PRESETS = {
    "cnn-table1": dict(embedding_dim=290, dropout_rate=0.51, l2_weight=0.13, layers=(
        LayerConfig("conv", ((0, 1), (1, 1), (4, 4)), 570),
        LayerConfig("conv", ((1, 1), (2, 2), (3, 4)), 570),
        LayerConfig("conv", ((0, 1), (1, 2), (2, 3)), 570))),
    "acnn-table1": dict(embedding_dim=290, dropout_rate=0.53, l2_weight=0.23, layers=(
        LayerConfig("autocorr", ((5, 6), (3, 3)), 120),
        LayerConfig("conv", ((4, 5), (2, 3)), 120),
        LayerConfig("conv", ((3, 4), (2, 2)), 120))),
    **{f"{arch}-toy": dict(embedding_dim=32, dropout_rate=0.15, l2_weight=0.01, layers=(
        LayerConfig(LAYER1_KIND[arch], ((2, 6),), 16),
        LayerConfig("conv", ((1, 2),), 16),
        LayerConfig("conv", ((0, 1),), 16))) for arch in ("cnn", "acnn")},
}

MODEL_PRESETS = tuple(_PRESETS)


def model_preset(name: str, vocab_size: int, seed: int = 0) -> ModelConfig:
    """The named architecture preset's config for a vocabulary and a seed."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown model preset {name!r}")
    return ModelConfig(vocab_size=vocab_size, seed=seed, **_PRESETS[name])


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

class CheckpointError(RuntimeError):
    pass


_MAGIC = b"ACNNCKPT"
_VERSION = 1
_FLOAT64 = 0  # the only tensor dtype code


@dataclass
class Checkpoint:
    """Everything needed to reproduce a model: config, parameter values,
    vocabulary, the RNG algorithm and seed used, and the training step."""

    config: ModelConfig
    vocab_words: list[str]
    rng_algorithm: str
    seed: int
    step: int
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    def build_model(self) -> Model:
        """A model for tagging over this checkpoint's tensors. It takes over
        the arrays without drawing or copying (each A in the order _held
        gives it, as in a built model), marks each B read-only and
        folds it once, here, for the model's life (Model.with_kept_folds). A
        write into a B (an Adam step, load_values) then raises instead of
        leaving a stale fold. Every other array stays writable, so a model
        loaded from a cnn checkpoint can still be trained."""
        params = ParamStore(self.tensors)
        for _, p in params.items():
            if _is_pair_kernel(p.value):
                p.value.flags.writeable = False
        return Model(self.config, params).with_kept_folds()


def _tensor_header(name: str, shape: tuple[int, ...]) -> bytes:
    """The bytes before a tensor's data: u16 name length, name utf-8, u8 dtype
    code (always 0 = float64), u8 rank, u32 dims..., all little-endian."""
    nb = name.encode("utf-8")
    try:
        return struct.pack(f"<H{len(nb)}sBB{len(shape)}I", len(nb), nb, _FLOAT64,
                           len(shape), *shape)
    except struct.error as exc:  # a dim of 2**32 or more
        raise CheckpointError(f"tensor {name!r} {shape} has no v1 header: {exc}") from None


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Binary layout (all integers little-endian):
    magic "ACNNCKPT" | u32 version | u64 metadata length | metadata JSON |
    u32 tensor count | per tensor: _tensor_header, raw row-major data.
    The tensors must be exactly those of _layout (names in order, shapes),
    the one header rule that load_checkpoint checks too.
    Writing is deterministic, so save -> load -> save is byte-identical, and
    atomic (atomic_open): a failed write leaves `path` as it was. Metadata or
    tensors that load_checkpoint would refuse are a CheckpointError before any
    write."""
    meta = {
        "config": ckpt.config.to_dict(),
        "vocab": ckpt.vocab_words,
        "rng_algorithm": ckpt.rng_algorithm,
        "seed": ckpt.seed,
        "step": ckpt.step,
    }
    layout = [(name, shape) for name, shape, _, _ in _layout(_checked_config(meta))]
    if [(name, arr.shape) for name, arr in ckpt.tensors.items()] != layout:
        raise CheckpointError("checkpoint tensors are not its config's (names in order, shapes)")
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(layout)))
        for name, arr in ckpt.tensors.items():
            fh.write(_tensor_header(name, arr.shape))
            # a C-contiguous tensor is written without a copy (values_copy
            # gives one), a model's own A ((m, w, c)-major, _held) through
            # one row-major copy
            fh.write(np.ascontiguousarray(arr, dtype=np.float64).data)


# metadata key -> required JSON type
_META_TYPES = {"config": dict, "vocab": list, "rng_algorithm": str, "seed": int, "step": int}


def _checked_config(meta) -> ModelConfig:
    """The config of checkpoint metadata `meta`, after checking every field:
    the one check of what save_checkpoint writes and load_checkpoint reads."""
    if not isinstance(meta, dict):
        raise CheckpointError("bad checkpoint metadata: not a JSON object")
    for key, typ in _META_TYPES.items():
        # bool is an int subclass, but never a seed or a step
        if isinstance(meta.get(key), bool) or not isinstance(meta.get(key), typ):
            raise CheckpointError(
                f"bad checkpoint metadata: {key!r} missing or not a {typ.__name__}")
    # a tagging manifest records Rng.ALGORITHM beside the checkpoint's seed
    if meta["rng_algorithm"] != Rng.ALGORITHM:
        raise CheckpointError(f"bad checkpoint metadata: rng_algorithm "
                              f"{meta['rng_algorithm']!r} is not {Rng.ALGORITHM!r}")
    if meta["step"] < 0:
        raise CheckpointError(f"bad checkpoint metadata: negative step {meta['step']}")
    if not all(isinstance(word, str) for word in meta["vocab"]):
        raise CheckpointError("bad checkpoint metadata: non-string vocabulary entry")
    if len(set(meta["vocab"])) != len(meta["vocab"]):
        raise CheckpointError("bad checkpoint metadata: a vocabulary word repeats")
    # Vocabulary.encode sends unknown words to id 1
    if meta["vocab"][:2] != [PAD_WORD, UNK_WORD]:
        raise CheckpointError(f"bad checkpoint metadata: vocabulary does not start "
                              f"with {PAD_WORD!r}, {UNK_WORD!r}")
    try:
        config = ModelConfig.from_dict(meta["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"bad checkpoint config: {exc!r}") from exc
    # cmd_train writes the seed twice, and a tagging manifest records the metadata copy
    if meta["seed"] != config.seed:
        raise CheckpointError(f"bad checkpoint metadata: seed {meta['seed']} is not "
                              f"its config's {config.seed}")
    if len(meta["vocab"]) > config.vocab_size:
        raise CheckpointError(f"vocabulary longer than vocab_size {config.vocab_size}")
    return config


def load_checkpoint(path, expect_config: ModelConfig | None = None) -> Checkpoint:
    """The checkpoint at `path`, every field and tensor header checked (see
    save_checkpoint for the layout). Each tensor is read into the array and
    the memory order that _held gives it, Model.build's, with no bytes
    object beside it: straight into its array, or for an A block by block."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def guard(n: int) -> int:
            # a length field larger than the rest of the file is never allocated
            if n > size - fh.tell():
                raise CheckpointError("corrupt checkpoint: truncated file")
            return n

        def read(n: int) -> bytes:
            return fh.read(guard(n))

        def unpack(fmt: str) -> int:
            return struct.unpack(fmt, read(struct.calcsize(fmt)))[0]

        def read_array(shape: tuple[int, ...]) -> np.ndarray:
            array = np.empty(shape)
            if fh.readinto(array.data.cast("B")) != array.nbytes:
                raise CheckpointError("corrupt checkpoint: truncated file")
            return array

        if read(len(_MAGIC)) != _MAGIC:
            raise CheckpointError("corrupt checkpoint: bad magic")
        version = unpack("<I")
        if version != _VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        meta_len = unpack("<Q")
        try:
            meta = json.loads(read(meta_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"corrupt checkpoint metadata: {exc}") from exc
        config = _checked_config(meta)
        layout = _layout(config)
        if unpack("<I") != len(layout):
            raise CheckpointError(f"checkpoint tensor count is not its config's {len(layout)}")
        tensors: dict[str, np.ndarray] = {}
        for name, shape, _, _ in layout:
            header = _tensor_header(name, shape)
            if read(len(header)) != header:
                raise CheckpointError(f"checkpoint tensor header is not its config's "
                                      f"{name!r} {shape}")
            guard(8 * math.prod(shape))
            tensors[name] = _held(shape, read_array)
        if fh.tell() != size:
            raise CheckpointError("corrupt checkpoint: trailing bytes")
    if expect_config is not None and config != expect_config:
        raise CheckpointError("checkpoint config does not match the expected config")
    return Checkpoint(config=config, vocab_words=meta["vocab"],
                      rng_algorithm=meta["rng_algorithm"], seed=meta["seed"],
                      step=meta["step"], tensors=tensors)
