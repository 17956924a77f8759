"""Declarative compressor specification: parse, validate, build.

A spec names one compression scheme plus its parameters, in a form that is
hashable (lives inside the frozen ``SNAPConfig``), printable (the ``label``
doubles as the cost tracker's stage key and the checkpoint compatibility
tag), and parseable from one CLI token::

    ape                    changed_only              dense
    topk:k=32              randomk:k=8               uniform:bits=6
    terngrad

Grammar: ``kind[:key=value,...]``. The three *preset* kinds (``ape``,
``changed_only``, ``dense``) are the paper's SNAP / SNAP-0 / SNO policies
and take no parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError

#: The paper's schemes SNAP, SNAP-0 and SNO, each with the preset kind that
#: runs it: the one scheme <-> preset table.
SCHEME_PRESETS = {"snap": "ape", "snap0": "changed_only", "sno": "dense"}

#: The paper's own selection policies, in the order above.
#: ``SNAPConfig.compressor`` defaults to the first.
PRESET_KINDS = tuple(SCHEME_PRESETS.values())

#: Parameter schema per kind: name -> (default, validator).
_SCHEMAS: dict[str, dict] = {
    "ape": {},
    "changed_only": {},
    "dense": {},
    "topk": {"k": 16},
    "randomk": {"k": 16},
    "uniform": {"bits": 4},
    "terngrad": {},
}


def _coerce(text: str):
    """CLI value coercion: int, then float, then bool, else reject later."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    return text


@dataclass(frozen=True)
class CompressorSpec:
    """One validated compressor choice.

    Attributes
    ----------
    kind:
        Scheme name; one of ``ape``, ``changed_only``, ``dense``, ``topk``,
        ``randomk``, ``uniform``, ``terngrad``.
    params:
        Canonicalized ``(name, value)`` pairs — every schema parameter
        present, in schema order, defaults filled in.
    """

    kind: str
    params: tuple = field(default=())

    def __post_init__(self) -> None:
        if self.kind not in _SCHEMAS:
            raise ConfigurationError(
                f"unknown compressor kind {self.kind!r}; known kinds: "
                f"{', '.join(sorted(_SCHEMAS))}"
            )
        schema = _SCHEMAS[self.kind]
        given = dict(self.params)
        unknown = set(given) - set(schema)
        if unknown:
            raise ConfigurationError(
                f"compressor {self.kind!r} does not take parameter(s) "
                f"{', '.join(sorted(unknown))}; it takes "
                f"{', '.join(sorted(schema)) or 'no parameters'}"
            )
        canonical = tuple(
            (name, given.get(name, default)) for name, default in schema.items()
        )
        object.__setattr__(self, "params", canonical)

    # -- derived views -----------------------------------------------------------

    @property
    def is_preset(self) -> bool:
        """Whether this spec is one of the paper's own selection policies."""
        return self.kind in PRESET_KINDS

    @property
    def label(self) -> str:
        """Canonical printable form; also the stage/checkpoint identity."""
        if self.params:
            rendered = ",".join(f"{name}={value}" for name, value in self.params)
            return f"{self.kind}({rendered})"
        return self.kind

    @property
    def spec_string(self) -> str:
        """This spec back in the parse grammar: ``kind[:key=value,...]``.

        The exact inverse of :meth:`parse` on canonical specs:
        ``CompressorSpec.parse(spec.spec_string) == spec`` always holds
        (unlike :attr:`label`, whose ``kind(k=v)`` rendering is for display
        and stage keys, not re-parsing).
        """
        text = self.kind
        if self.params:
            text += ":" + ",".join(f"{name}={value}" for name, value in self.params)
        return text

    def params_dict(self) -> dict:
        return dict(self.params)

    def with_param(self, name: str, value) -> "CompressorSpec":
        """A copy with one parameter overridden (validation re-runs).

        String values go through the same CLI coercion as :meth:`parse`, so
        ``--compressor-arg k=8`` yields an integer ``k``.
        """
        if isinstance(value, str):
            value = _coerce(value)
        merged = {**dict(self.params), name: value}
        return CompressorSpec(kind=self.kind, params=tuple(merged.items()))

    # -- construction ------------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "CompressorSpec":
        """Parse the CLI grammar ``kind[:key=value,...]``."""
        if not isinstance(text, str) or not text.strip():
            raise ConfigurationError(
                f"compressor spec must be a non-empty string, got {text!r}"
            )
        pieces = text.strip().split(":")
        # The retired error-feedback prefix: reference tracking already is
        # error feedback, so ``ef:X`` parses as ``X``. Its one caller is the
        # frozen ``ef:topk:k=16`` of benchmarks/e2e/workloads.py; ROADMAP
        # item 2(h) deletes this alias when it respells that workload.
        alias = pieces[0] == "ef"
        if alias:
            pieces = pieces[1:]
        if not pieces or not pieces[0]:
            raise ConfigurationError(
                f"compressor spec {text!r} names no kind (grammar: "
                "kind[:key=value,...])"
            )
        kind, *arg_groups = pieces
        params: dict = {}
        for group in arg_groups:
            for item in group.split(","):
                if not item:
                    continue
                if "=" not in item:
                    raise ConfigurationError(
                        f"malformed compressor argument {item!r} in {text!r} "
                        "(expected key=value)"
                    )
                name, _, raw = item.partition("=")
                params[name.strip()] = _coerce(raw.strip())
        spec = cls(kind=kind, params=tuple(params.items()))
        if alias and spec.is_preset:
            raise ConfigurationError(
                f"error feedback cannot wrap the {kind!r} preset: its "
                "reference tracking already performs error feedback (the "
                "residual current - last_sent is re-offered every round)"
            )
        return spec

    @staticmethod
    def normalize(value) -> "CompressorSpec":
        """Accept a spec string or a :class:`CompressorSpec` uniformly."""
        if isinstance(value, CompressorSpec):
            return value
        if isinstance(value, str):
            return CompressorSpec.parse(value)
        raise ConfigurationError(
            f"compressor must be a spec string or a CompressorSpec; got {value!r}"
        )


def build_compressor(spec: CompressorSpec, schedule=None):
    """Instantiate the compressor a spec describes.

    ``schedule`` is the node's :class:`~repro.core.ape.APESchedule` and is
    only consumed by the ``ape`` preset. The instance's ``name`` is set to
    the spec's label so cost-tracker stage attribution and checkpoints
    carry the full parameterization.
    """
    from repro.compression.ape import APECompressor
    from repro.compression.quantize import TernGradCompressor, UniformQuantizer
    from repro.compression.sparsify import RandomKCompressor, TopKCompressor

    params = spec.params_dict()
    if spec.kind == "ape":
        compressor = APECompressor(schedule=schedule)
    elif spec.kind == "changed_only":
        compressor = APECompressor()
    elif spec.kind == "dense":
        compressor = APECompressor(dense=True)
    elif spec.kind == "topk":
        compressor = TopKCompressor(**params)
    elif spec.kind == "randomk":
        compressor = RandomKCompressor(**params)
    elif spec.kind == "uniform":
        compressor = UniformQuantizer(**params)
    else:
        compressor = TernGradCompressor()
    compressor.name = spec.label
    return compressor
