"""Rejection-sampling generator for cascade PBE instances.

Inputs and rules are sampled from seeded uniform distributions; candidates
are pruned to their effective cascade (rules that change nothing are
dropped), classified, and accepted against per-bin quotas until a patience
budget is exhausted, after which the quota constraints are relaxed.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field, fields, replace
from itertools import starmap
from typing import Collection, Optional, Sequence

from .core import (
    Alphabet,
    Cascade,
    RewriteRule,
    apply_rule_vec,
    check_types,
    decode_rules,
    encode_rules,
    read_json,
    substrings_of_length,
    write_json,
)
from .relations import (
    ALL_CATEGORIES,
    RelationEdge,
    category_of,
    classify_bfcc,
)

QUOTA_MODES = ("category-balanced", "length-balanced", "both")
POST_PATIENCE_POLICIES = ("accept-any", "keep-length-quota")


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs for one generation run.

    Find patterns have lengths ``s_min..s_max`` and replacements
    ``t_min..s_max``; ``t_min``, keyword-only, defaults to ``s_min``, and
    ``t_min=0`` lets rules delete. ``tau`` is the number of sampling
    iterations during which every quota constraint is enforced; afterwards
    ``post_patience_policy`` decides what still applies.
    """

    n: int
    alphabet: Alphabet
    l_min: int
    l_max: int
    L_min: int
    L_max: int
    s_min: int
    s_max: int
    t_min: Optional[int] = field(default=None, kw_only=True)
    D: int
    tau: int
    seed: int
    quota_mode: str = "category-balanced"
    post_patience_policy: str = "keep-length-quota"

    def __post_init__(self) -> None:
        if self.t_min is None:
            object.__setattr__(self, "t_min", self.s_min)
        if not (1 <= self.l_min <= self.l_max):
            raise ValueError("need 1 <= l_min <= l_max")
        if not (1 <= self.L_min <= self.L_max):
            raise ValueError("need 1 <= L_min <= L_max")
        if not (1 <= self.s_min <= self.s_max):
            raise ValueError("need 1 <= s_min <= s_max")
        if not (0 <= self.t_min <= self.s_max):
            raise ValueError("need 0 <= t_min <= s_max")
        if self.n < 1:
            raise ValueError("need n >= 1")
        if self.D < 1:
            raise ValueError("need D >= 1")
        if self.tau < 0:
            raise ValueError("need tau >= 0")
        if self.quota_mode not in QUOTA_MODES:
            raise ValueError(f"unknown quota_mode {self.quota_mode!r}")
        if self.post_patience_policy not in POST_PATIENCE_POLICIES:
            raise ValueError(
                f"unknown post_patience_policy {self.post_patience_policy!r}"
            )

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["alphabet"] = "".join(self.alphabet.symbols)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "GeneratorParams":
        check_types(cls, data)
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown generator keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "alphabet" in kwargs:
            kwargs["alphabet"] = Alphabet.from_string(kwargs["alphabet"])
        return cls(**kwargs)


def lite_params(seed: int, D: int = 1008, tau: int = 100_000) -> GeneratorParams:
    """The small category-balanced configuration: 5 examples, 17-symbol
    alphabet, cascades of length 2..5, inputs of length 2..6, find patterns
    of length 1..3 and replacements of length 0..3."""
    from .core import LITE_ALPHABET

    return GeneratorParams(
        n=5, alphabet=LITE_ALPHABET, l_min=2, l_max=6, L_min=2, L_max=5,
        s_min=1, s_max=3, t_min=0, D=D, tau=tau, seed=seed,
        quota_mode="category-balanced",
    )


# The edge of an ``[i, kind, j]`` row, one frozen object per triple shared
# by every instance that loads it: a lite dataset's 3,000-odd rows hold at
# most 40 triples. The table is bounded, and ``RelationEdge`` rejects a bad
# row each time it is loaded, since a call that raises stores nothing.
_shared_edge = functools.lru_cache(maxsize=256)(RelationEdge)


@dataclass(frozen=True, slots=True)
class PbeInstance:
    """One generated problem: inputs, the effective cascade that produced the
    outputs, and its relation metadata."""

    id: str
    inputs: tuple[str, ...]
    cascade: Cascade = field(metadata={"key": "programs"})
    outputs: tuple[str, ...]
    category: str
    fb_edges: tuple[RelationEdge, ...]

    @property
    def effective_length(self) -> int:
        return len(self.cascade)

    @property
    def complexity(self) -> int:
        return sum(len(r.source) + len(r.target) for r in self.cascade)

    def dedup_signature(self) -> tuple:
        """What makes two instances the same problem: inputs, outputs and
        the exact cascade (rules compare by their find and replace text)."""
        return (self.inputs, self.outputs, self.cascade)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "programs": encode_rules(self.cascade),
            "cascade_length": len(self.cascade),
            "category": self.category,
            "fb_edges": [[e.i, e.kind, e.j] for e in self.fb_edges],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PbeInstance":
        check_types(cls, data)
        category = data["category"]
        if category not in ALL_CATEGORIES:
            raise ValueError(f"malformed category string {category!r}")
        m = len(data["programs"])
        for row in data["fb_edges"]:
            if not (0 <= row[0] < m and 0 <= row[2] < m):
                raise ValueError(
                    f"fb_edges row {row!r} names a rule outside 0..{m - 1}"
                )
        return cls(
            id=data["id"],
            inputs=tuple(data["inputs"]),
            cascade=decode_rules(data["programs"]),
            outputs=tuple(data["outputs"]),
            category=category,
            fb_edges=tuple(starmap(_shared_edge, data["fb_edges"])),
        )


@dataclass
class GenerationStats:
    attempts: int = 0
    acceptances: int = 0
    patience_exhausted: bool = False

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class Dataset:
    params: GeneratorParams
    instances: list[PbeInstance]
    stats: GenerationStats = field(default_factory=GenerationStats)

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "instances": [inst.to_dict() for inst in self.instances],
            "stats": self.stats.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Dataset":
        stats = data.get("stats", {})
        check_types(GenerationStats, stats)
        return cls(
            params=GeneratorParams.from_dict(data["params"]),
            instances=[PbeInstance.from_dict(d) for d in data["instances"]],
            stats=GenerationStats(**stats),
        )

    def save(self, path: str) -> None:
        write_json(self.to_dict(), path)

    @classmethod
    def load(cls, path: str) -> "Dataset":
        return cls.from_dict(read_json(path))


def _below(getrandbits, n: int) -> int:
    """A uniform draw from ``range(n)``, ``n >= 1``.

    Makes exactly the ``getrandbits`` calls of CPython's
    ``Random._randbelow_with_getrandbits``, which ``choice(seq)`` and
    ``randint(a, b)`` reach through two more Python frames, so
    ``seq[_below(getrandbits, len(seq))]`` and
    ``a + _below(getrandbits, b - a + 1)`` draw what those do and leave the
    generator in the same state.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _word(getrandbits, symbols: Sequence[str], length: int) -> str:
    """``length`` i.i.d. uniform symbols: the draws of
    ``"".join([choice(symbols) for _ in range(length)])`` in one loop."""
    n = len(symbols)
    k = n.bit_length()
    chars = []
    for _ in range(length):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        chars.append(symbols[r])
    return "".join(chars)


def sample_input_vector(params: GeneratorParams, rng: random.Random) -> list[str]:
    """n strings with uniform lengths in [l_min, l_max] and i.i.d. uniform
    characters."""
    symbols = params.alphabet.symbols
    getrandbits = rng.getrandbits
    spread = params.l_max - params.l_min + 1
    return [
        _word(getrandbits, symbols, params.l_min + _below(getrandbits, spread))
        for _ in range(params.n)
    ]


def sample_rule(
    intermediate: Sequence[str], params: GeneratorParams, rng: random.Random
) -> Optional[RewriteRule]:
    """Draw one rule against the current intermediate vector.

    The find pattern has a uniform length in [s_min, s_max] and is drawn
    uniformly from the distinct substrings of that length present anywhere
    in the vector; the replacement has a uniform length in [t_min, s_max]
    (empty when the rule deletes) and i.i.d. uniform characters. Returns
    None when no feasible find-pattern length exists.
    """
    getrandbits = rng.getrandbits
    source_len = params.s_min + _below(getrandbits, params.s_max - params.s_min + 1)
    candidates = substrings_of_length(intermediate, source_len)
    if not candidates:
        feasible = [
            length
            for length in range(params.s_min, params.s_max + 1)
            if any(len(s) >= length for s in intermediate)
        ]
        if not feasible:
            return None
        source_len = feasible[_below(getrandbits, len(feasible))]
        candidates = substrings_of_length(intermediate, source_len)
    source = candidates[_below(getrandbits, len(candidates))]
    target_len = params.t_min + _below(getrandbits, params.s_max - params.t_min + 1)
    return RewriteRule(source, _word(getrandbits, params.alphabet.symbols, target_len))


def sample_candidate(
    params: GeneratorParams,
    rng: random.Random,
    allowed: Optional[Collection[str]] = None,
) -> Optional[PbeInstance]:
    """One full sampling iteration: inputs, a target-length cascade pruned to
    its effective rules, and classification. None encodes rejection; with
    ``allowed``, that includes a cascade whose category can no longer end in
    it (see ``category_of``). That is reachability, not membership: a
    category outside ``allowed`` is still returned when its bits fit inside
    an allowed one (``'0000'`` always does), and ``generate_dataset``'s
    quota test rejects it. The random draws do not depend on ``allowed``.

    The instance has an empty ``id`` and no ``fb_edges``: most candidates
    are rejected on their category alone, so ``generate_dataset`` fills both
    on acceptance.
    """
    target_length = params.L_min + _below(
        rng.getrandbits, params.L_max - params.L_min + 1
    )
    inputs = sample_input_vector(params, rng)
    intermediate = inputs
    kept: list[RewriteRule] = []
    for _ in range(target_length):
        rule = sample_rule(intermediate, params, rng)
        if rule is None:
            break
        # The find pattern occurs in the vector, so the rule changes it iff
        # the replacement differs: at the first occurrence a same-length
        # replacement writes other text, and any other length changes the
        # string's length.
        if rule.target != rule.source:
            kept.append(rule)
            intermediate = apply_rule_vec(rule, intermediate)
    if len(kept) < params.L_min or intermediate == inputs:
        return None
    category = category_of(kept, allowed)
    if category is None:
        return None
    return PbeInstance(
        id="",
        inputs=tuple(inputs),
        cascade=tuple(kept),
        outputs=tuple(intermediate),
        category=category,
        fb_edges=(),
    )


def _even_cap(counts: dict, D: int) -> int:
    """How many instances a bin may hold when D is split as evenly as
    possible over the bins of ``counts``: D // bins + 1 while fewer than
    D % bins bins hold that many, else D // bins."""
    base, extra = divmod(D, len(counts))
    return base + (sum(c > base for c in counts.values()) < extra)


def generate_dataset(params: GeneratorParams) -> Dataset:
    """Run rejection sampling until D instances are collected.

    Before iteration ``tau``, a candidate is accepted only if its quota bins
    (per ``quota_mode``) have room and its dedup signature is unseen; after
    ``tau`` the post-patience policy applies. Each quota, and the length cap
    of ``keep-length-quota``, splits D evenly (see ``_even_cap``), so its
    bins hold D in total. Deterministic in (params, seed).
    """
    rng = random.Random(params.seed)
    cat_counts = {cat: 0 for cat in ALL_CATEGORIES}
    len_counts = {length: 0 for length in range(params.L_min, params.L_max + 1)}
    cat_cap = _even_cap(cat_counts, params.D)
    len_cap = _even_cap(len_counts, params.D)
    seen: set[tuple] = set()
    instances: list[PbeInstance] = []
    stats = GenerationStats()

    enforce_category = params.quota_mode in ("category-balanced", "both")
    enforce_length = params.quota_mode in ("length-balanced", "both")

    # Categories whose quota has room; a candidate outside them is rejected
    # before its classification finishes. A frozenset, rebuilt only when a
    # category closes, so ``category_of`` takes it without a copy.
    open_categories = frozenset(ALL_CATEGORIES)

    t = 0
    while len(instances) < params.D:
        t += 1
        enforced = enforce_category and t < params.tau
        candidate = sample_candidate(
            params, rng, open_categories if enforced else None
        )
        if candidate is None:
            continue
        signature = candidate.dedup_signature()
        if signature in seen:
            continue
        cat = candidate.category
        length = len(candidate.cascade)

        if t < params.tau:
            if enforce_category and cat_counts[cat] >= cat_cap:
                continue
            if enforce_length and len_counts[length] >= len_cap:
                continue
        else:
            stats.patience_exhausted = True
            if (
                params.post_patience_policy == "keep-length-quota"
                and len_counts[length] >= len_cap
            ):
                continue

        instances.append(replace(
            candidate,
            id=f"inst-{len(instances):05d}",
            fb_edges=tuple(classify_bfcc(candidate.cascade)[1]),
        ))
        seen.add(signature)
        cat_counts[cat] += 1
        len_counts[length] += 1
        cat_cap = _even_cap(cat_counts, params.D)
        len_cap = _even_cap(len_counts, params.D)
        if cat_counts[cat] >= cat_cap:
            open_categories = frozenset(
                c for c in ALL_CATEGORIES if cat_counts[c] < cat_cap
            )

    stats.attempts = t
    stats.acceptances = len(instances)
    return Dataset(params=params, instances=instances, stats=stats)


@dataclass
class BalanceReport:
    """Counts per category bin and cascade length, plus the divergence of the
    category distribution from uniform."""

    category_counts: dict[str, int]
    length_counts: dict[int, int]
    kl_nats: float
    smoothing: float

    def to_dict(self) -> dict:
        return {
            "category_counts": dict(self.category_counts),
            "length_counts": {str(k): v for k, v in sorted(self.length_counts.items())},
            "kl_nats": self.kl_nats,
            "smoothing": self.smoothing,
        }


def kl_from_counts(counts: Sequence[int], smoothing: float = 1.0) -> float:
    """KL divergence (nats) of the uniform distribution from the smoothed
    empirical one.

    Add-``smoothing`` is applied to every bin before normalization, so empty
    bins contribute a finite penalty and exactly-uniform counts give 0. With
    no smoothing an empty bin has empirical mass 0 where the uniform one has
    mass, so the divergence is ``math.inf``.
    """
    if not counts:
        raise ValueError("need at least one bin")
    if smoothing < 0:
        raise ValueError(f"smoothing must be non-negative, got {smoothing!r}")
    bins = len(counts)
    smoothed = [c + smoothing for c in counts]
    if 0 in smoothed:
        return math.inf
    total = sum(smoothed)
    u = 1.0 / bins
    kl = sum(u * math.log(u / (q / total)) for q in smoothed)
    # Clamp away the negative epsilon that float rounding can leave behind.
    return max(kl, 0.0)


def kl_balance_report(dataset: Dataset) -> BalanceReport:
    """Tabulate category/length counts for a dataset and the category KL,
    with ``kl_from_counts``'s add-one smoothing."""
    if not dataset.instances:
        raise ValueError("dataset is empty")
    category_counts = {cat: 0 for cat in ALL_CATEGORIES}
    length_counts: dict[int, int] = {}
    for inst in dataset.instances:
        category_counts[inst.category] += 1
        length_counts[inst.effective_length] = (
            length_counts.get(inst.effective_length, 0) + 1
        )
    kl = kl_from_counts([category_counts[cat] for cat in ALL_CATEGORIES])
    return BalanceReport(
        category_counts=category_counts,
        length_counts=length_counts,
        kl_nats=kl,
        smoothing=1.0,
    )
