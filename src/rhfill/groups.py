"""Exact group arithmetic for the families the rest of the library builds on.

Every oracle ships a canonical normal form, so equality is literal payload
equality and the word problem is exact:

* free abelian: exponent vectors
* finite cyclic: residues
* free products of abelian factors: alternating syllable tuples; a free
  group is the free product of rank-one free abelian factors
* filled quotients: free products of abelian quotients (lattice reduction)

Payloads are nested tuples of ints, hashable and order-free; deterministic
ordering is provided separately through ``sort_key``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable

import numpy as np

from .errors import (BudgetExceededError, InvalidParameterError, SchemaError,
                     UnsupportedKindError)
from .lattices import reduce_mod_rows, row_hermite

ALPHABET = "abcdefghijklmnopqrstuvwxyz"

BALL_CAP = 2_000_000  # default element budget for ball enumeration


@dataclass(frozen=True)
class GroupElement:
    """A group element identified with its canonical normal form."""

    word: Any

    def __repr__(self):
        return f"GroupElement({self.word!r})"


class GroupOracle:
    """Abstract finitely generated group with an exact word problem."""

    kind: str = "abstract"
    gen_names: tuple[str, ...] = ()

    def identity(self) -> GroupElement:
        raise NotImplementedError

    def multiply(self, x: GroupElement, y: GroupElement) -> GroupElement:
        raise NotImplementedError

    def inverse(self, x: GroupElement) -> GroupElement:
        raise NotImplementedError

    def word_length(self, x: GroupElement) -> int:
        raise NotImplementedError

    def generators(self) -> list[GroupElement]:
        """Symmetric generating list, deterministic order."""
        raise NotImplementedError

    def sort_key(self, x: GroupElement):
        raise NotImplementedError

    def syllables(self, x: GroupElement) -> list[tuple[str, int]]:
        """(name, exponent) pairs of the canonical form, for serialization."""
        raise NotImplementedError

    def generator(self, name: str, power: int = 1) -> GroupElement:
        raise NotImplementedError

    def power(self, x: GroupElement, n: int) -> GroupElement:
        if n < 0:
            return self.power(self.inverse(x), -n)
        acc = self.identity()
        base = x
        while n:
            if n & 1:
                acc = self.multiply(acc, base)
            base = self.multiply(base, base)
            n >>= 1
        return acc

    def is_identity(self, x: GroupElement) -> bool:
        return x == self.identity()


# ---------------------------------------------------------------------------
# abelian factor payload API (raw payloads, shared by free products)


class AbelianFactor(GroupOracle):
    """Abelian oracle exposing raw-payload hooks used by free products."""

    def p_identity(self):
        raise NotImplementedError

    def p_add(self, p, q):
        raise NotImplementedError

    def p_neg(self, p):
        raise NotImplementedError

    def p_length(self, p) -> int:
        raise NotImplementedError

    def p_sort_key(self, p):
        raise NotImplementedError

    def p_generators(self) -> list:
        raise NotImplementedError

    def p_within(self, radius: int) -> list:
        """All payloads of word length <= radius, identity included, sorted."""
        raise NotImplementedError

    def p_from_exponents(self, vec: Iterable[int]):
        raise NotImplementedError

    def p_syllables(self, p) -> list[tuple[str, int]]:
        raise NotImplementedError

    def p_order(self) -> int | None:
        raise NotImplementedError

    # GroupElement-level interface in terms of payloads
    def identity(self):
        return GroupElement(self.p_identity())

    def multiply(self, x, y):
        return GroupElement(self.p_add(x.word, y.word))

    def inverse(self, x):
        return GroupElement(self.p_neg(x.word))

    def word_length(self, x):
        return self.p_length(x.word)

    def sort_key(self, x):
        return (self.p_length(x.word), self.p_sort_key(x.word))

    def generators(self):
        return [GroupElement(p) for p in self.p_generators()]

    def syllables(self, x):
        return self.p_syllables(x.word)

    def generator(self, name, power=1):
        if name not in self.gen_names:
            raise InvalidParameterError(f"unknown generator {name!r}")
        vec = [0] * len(self.gen_names)
        vec[self.gen_names.index(name)] = power
        return GroupElement(self.p_from_exponents(vec))


class FreeAbelianOracle(AbelianFactor):
    kind = "free-abelian"

    def __init__(self, rank: int, names: tuple[str, ...] | None = None):
        if rank < 1:
            raise InvalidParameterError("free-abelian rank must be >= 1")
        self.rank = rank
        self.gen_names = tuple(names) if names else tuple(ALPHABET[:rank])
        if len(self.gen_names) != rank:
            raise InvalidParameterError("need one name per generator")

    def p_identity(self):
        return (0,) * self.rank

    def p_add(self, p, q):
        return tuple(a + b for a, b in zip(p, q))

    def p_neg(self, p):
        return tuple(-a for a in p)

    def p_length(self, p):
        return sum(abs(a) for a in p)

    def p_sort_key(self, p):
        return p

    def p_generators(self):
        out = []
        for i in range(self.rank):
            for s in (1, -1):
                vec = [0] * self.rank
                vec[i] = s
                out.append(tuple(vec))
        return out

    def p_within(self, radius):
        out = []

        def rec(prefix, left):
            if len(prefix) == self.rank:
                out.append(tuple(prefix))
                return
            for v in range(-left, left + 1):
                rec(prefix + [v], left - abs(v))

        rec([], radius)
        out.sort(key=lambda p: (self.p_length(p), p))
        return out

    def p_from_exponents(self, vec):
        vec = tuple(vec)
        if len(vec) != self.rank:
            raise InvalidParameterError("exponent vector has wrong rank")
        return vec

    def p_syllables(self, p):
        return [(self.gen_names[i], a) for i, a in enumerate(p) if a != 0]

    def p_order(self):
        return None


class FiniteCyclicOracle(AbelianFactor):
    kind = "finite-cyclic"

    def __init__(self, order: int, names: tuple[str, ...] | None = None):
        if order < 1:
            raise InvalidParameterError("cyclic order must be >= 1")
        self.order = order
        self.gen_names = tuple(names) if names else (ALPHABET[0],)
        if len(self.gen_names) != 1:
            raise InvalidParameterError("cyclic groups have one generator")

    def _signed(self, p):
        # minimal-magnitude signed representative; ties go positive
        return p if 2 * p <= self.order else p - self.order

    def p_identity(self):
        return 0

    def p_add(self, p, q):
        return (p + q) % self.order

    def p_neg(self, p):
        return (-p) % self.order

    def p_length(self, p):
        return min(p, self.order - p)

    def p_sort_key(self, p):
        return (self._signed(p),)

    def p_generators(self):
        if self.order == 1:
            return []
        if self.order == 2:
            return [1]
        return [1, self.order - 1]

    def p_within(self, radius):
        out = [p for p in range(self.order) if self.p_length(p) <= radius]
        out.sort(key=lambda p: (self.p_length(p), self.p_sort_key(p)))
        return out

    def p_from_exponents(self, vec):
        vec = list(vec)
        if len(vec) != 1:
            raise InvalidParameterError("exponent vector has wrong rank")
        return vec[0] % self.order

    def p_syllables(self, p):
        if p == 0:
            return []
        return [(self.gen_names[0], self._signed(p))]

    def p_order(self):
        return self.order


class QuotientAbelianOracle(AbelianFactor):
    """Z^rank modulo the row lattice of ``kernel_rows``.

    Canonical representatives come from Hermite reduction; word lengths (in
    the images of the standard generators) are computed by a lazily grown
    BFS table, which is exact at any radius it has reached.
    """

    kind = "quotient-abelian"

    def __init__(self, rank: int, kernel_rows: list[list[int]],
                 names: tuple[str, ...] | None = None):
        if rank < 1:
            raise InvalidParameterError("rank must be >= 1")
        for row in kernel_rows:
            if len(row) != rank:
                raise InvalidParameterError("kernel vector has wrong rank")
        self.rank = rank
        self.hermite = row_hermite([list(r) for r in kernel_rows], width=rank)
        self.gen_names = tuple(names) if names else tuple(ALPHABET[:rank])
        self._dist: dict[tuple, int] = {self.p_identity(): 0}
        self._frontier = [self.p_identity()]
        self._reached = 0

    def p_identity(self):
        return reduce_mod_rows([0] * self.rank, self.hermite)

    def p_add(self, p, q):
        return reduce_mod_rows([a + b for a, b in zip(p, q)], self.hermite)

    def p_neg(self, p):
        return reduce_mod_rows([-a for a in p], self.hermite)

    def _grow(self, radius):
        gens = self.p_generators()
        while self._reached < radius and self._frontier:
            nxt = []
            for p in self._frontier:
                for g in gens:
                    q = self.p_add(p, g)
                    if q not in self._dist:
                        self._dist[q] = self._reached + 1
                        nxt.append(q)
            self._frontier = nxt
            self._reached += 1
        if not self._frontier:
            self._reached = max(self._reached, radius)

    def p_length(self, p):
        if p not in self._dist:
            radius = self._reached
            while p not in self._dist and self._frontier:
                radius += 4
                self._grow(radius)
            if p not in self._dist:
                raise InvalidParameterError(f"payload {p} not in quotient group")
        return self._dist[p]

    def p_sort_key(self, p):
        return p

    def p_generators(self):
        seen, out = set(), []
        for i in range(self.rank):
            for s in (1, -1):
                vec = [0] * self.rank
                vec[i] = s
                q = reduce_mod_rows(vec, self.hermite)
                if q != self.p_identity() and q not in seen:
                    seen.add(q)
                    out.append(q)
        return out

    def p_within(self, radius):
        self._grow(radius)
        out = [p for p, d in self._dist.items() if d <= radius]
        out.sort(key=lambda p: (self._dist[p], p))
        return out

    def p_from_exponents(self, vec):
        vec = list(vec)
        if len(vec) != self.rank:
            raise InvalidParameterError("exponent vector has wrong rank")
        return reduce_mod_rows(vec, self.hermite)

    def p_syllables(self, p):
        return [(self.gen_names[i], a) for i, a in enumerate(p) if a != 0]

    def p_order(self):
        if len(self.hermite) < self.rank:
            return None
        order = 1
        for i, row in enumerate(self.hermite):
            piv = next(x for x in row if x != 0)
            order *= abs(piv)
        return order

    def reduce_ambient(self, vec):
        """Canonical representative of an ambient exponent vector."""
        return reduce_mod_rows(list(vec), self.hermite)


class FreeProductOracle(GroupOracle):
    """Free product of abelian factors; syllables alternate between factors."""

    def __init__(self, factors: list[AbelianFactor], kind: str = "free-product"):
        if not factors:
            raise InvalidParameterError("free product needs at least one factor")
        self.factors = list(factors)
        self.kind = kind
        names: list[str] = []
        self._slots: dict[str, tuple[int, str]] = {}
        for fi, f in enumerate(self.factors):
            for n in f.gen_names:
                if n in self._slots:
                    raise InvalidParameterError(f"duplicate generator name {n!r}")
                self._slots[n] = (fi, n)
                names.append(n)
        self.gen_names = tuple(names)

    def identity(self):
        return GroupElement(())

    def multiply(self, x, y):
        xs = list(x.word)
        ys = list(y.word)
        while xs and ys and xs[-1][0] == ys[0][0]:
            fi, p = xs.pop()
            _, q = ys.pop(0)
            s = self.factors[fi].p_add(p, q)
            if s != self.factors[fi].p_identity():
                xs.append((fi, s))
                break
        return GroupElement(tuple(xs + ys))

    def inverse(self, x):
        return GroupElement(tuple((fi, self.factors[fi].p_neg(p))
                                  for fi, p in reversed(x.word)))

    def word_length(self, x):
        return sum(self.factors[fi].p_length(p) for fi, p in x.word)

    def generators(self):
        out = []
        for fi, f in enumerate(self.factors):
            for p in f.p_generators():
                out.append(GroupElement(((fi, p),)))
        return out

    def sort_key(self, x):
        key = tuple((fi,) + tuple_key(self.factors[fi].p_sort_key(p))
                    for fi, p in x.word)
        return (self.word_length(x), key)

    def syllables(self, x):
        out = []
        for fi, p in x.word:
            out.extend(self.factors[fi].p_syllables(p))
        return out

    def generator(self, name, power=1):
        if name not in self._slots:
            raise InvalidParameterError(f"unknown generator {name!r}")
        fi, local = self._slots[name]
        f = self.factors[fi]
        g = f.generator(local, power)
        if f.is_identity(g):
            return self.identity()
        return GroupElement(((fi, g.word),))

    def from_syllables(self, sylls: Iterable[tuple[int, Any]]) -> GroupElement:
        acc = self.identity()
        for fi, p in sylls:
            if p == self.factors[fi].p_identity():
                continue
            acc = self.multiply(acc, GroupElement(((fi, p),)))
        return acc


def tuple_key(k):
    return k if isinstance(k, tuple) else (k,)


def intern_syllables(words, syllables=()) -> tuple[list, np.ndarray]:
    """Syllable ids of normal forms: the distinct syllables, ``syllables``
    first and then the others in first-seen order, and each word as a row
    of ids padded on the right with at least one pad id ``len(ids)``."""
    ids = {s: i for i, s in enumerate(syllables)}
    rows = [[ids.setdefault(s, len(ids)) for s in w] for w in words]
    width = max(map(len, rows), default=0) + 1
    return list(ids), np.array([row + [len(ids)] * (width - len(row))
                                for row in rows],
                               dtype=np.int64).reshape(len(rows), width)


def sort_columns(factors, syllables: list, rows: np.ndarray) -> np.ndarray:
    """Integer columns, most significant first, whose lexicographic order
    on the words given as :func:`intern_syllables` rows is the order of
    ``FreeProductOracle.sort_key``: word length, then (factor, p_sort_key)
    per syllable. The pad has factor -1, so a proper prefix sorts first,
    as tuple comparison does."""
    keys = [(fi,) + tuple_key(factors[fi].p_sort_key(p)) for fi, p in syllables]
    width = max(map(len, keys), default=1)
    table = np.array([k + (0,) * (width - len(k)) for k in keys]
                     + [(-1,) + (0,) * (width - 1)], dtype=np.int64)
    length = np.array([factors[fi].p_length(p) for fi, p in syllables] + [0],
                      dtype=np.int64)
    return np.column_stack([length[rows].sum(axis=1),
                            table[rows].reshape(len(rows), -1)])


# ---------------------------------------------------------------------------
# word serialization


def format_word(oracle: GroupOracle, g: GroupElement) -> str:
    """Space-free textual form: 'a^3.b^-2'; the identity is '1'."""
    sylls = oracle.syllables(g)
    if not sylls:
        return "1"
    return ".".join(f"{n}^{e}" for n, e in sylls)


def parse_word(oracle: GroupOracle, text: str) -> GroupElement:
    if not isinstance(text, str):
        raise InvalidParameterError(f"a word must be a string, got {text!r}")
    text = text.strip()
    if text in ("1", ""):
        return oracle.identity()
    acc = oracle.identity()
    for token in text.split("."):
        if "^" in token:
            name, _, exp = token.partition("^")
            try:
                e = int(exp)
            except ValueError as err:
                raise InvalidParameterError(f"bad exponent in {token!r}") from err
        else:
            name, e = token, 1
        acc = oracle.multiply(acc, oracle.generator(name, e))
    return acc


# ---------------------------------------------------------------------------
# descriptors


def _json_int(value, where: str) -> int:
    """A JSON integer; floats, strings and booleans are refused, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: expected an integer, got {value!r}")
    return value


def make_oracle(spec: dict) -> GroupOracle:
    """Build an oracle from a JSON-style descriptor.

    Kinds: free, free-abelian, finite-cyclic, free-product (of abelian
    factors). Names are assigned from one global alphabet so free-product
    factors never collide.
    """
    used = iter(ALPHABET)

    def build(s: dict, top: bool) -> GroupOracle:
        if not isinstance(s, dict) or "kind" not in s:
            raise UnsupportedKindError(f"bad group descriptor: {s!r}")
        kind = s["kind"]
        if kind == "free":
            rank = _json_int(s.get("rank", 0), "rank")
            if rank < 1:
                raise InvalidParameterError("free rank must be >= 1")
            return FreeProductOracle(
                [FreeAbelianOracle(1, (next(used),)) for _ in range(rank)],
                kind="free")
        if kind == "free-abelian":
            rank = _json_int(s.get("rank", 0), "rank")
            if rank < 1:
                raise InvalidParameterError("free-abelian rank must be >= 1")
            return FreeAbelianOracle(rank, tuple(next(used) for _ in range(rank)))
        if kind == "finite-cyclic":
            order = _json_int(s.get("order", 0), "order")
            if order < 1:
                raise InvalidParameterError("cyclic order must be >= 1")
            return FiniteCyclicOracle(order, (next(used),))
        if kind == "free-product":
            if not top:
                raise UnsupportedKindError("nested free products are not supported")
            factors = s.get("factors", [])
            if not isinstance(factors, list):
                raise SchemaError(f"factors: expected a list, got {factors!r}")
            factors = [build(f, False) for f in factors]
            for f in factors:
                if not isinstance(f, AbelianFactor):
                    raise UnsupportedKindError(
                        "free-product factors must be abelian kinds")
            return FreeProductOracle(factors)
        raise UnsupportedKindError(f"unsupported group kind {kind!r}")

    return build(spec, True)


# ---------------------------------------------------------------------------
# peripheral structure


class PeripheralSubgroup:
    """One peripheral subgroup of a pair: membership, canonical coset keys,
    and the local (suffix) coordinate used by horoballs.

    Every group element factors uniquely as coset_key(g) * embed(local(g)),
    where coset_key strips the maximal peripheral suffix of the normal form.
    """

    def __init__(self, pid: int, factor: AbelianFactor):
        self.id = pid
        self.factor = factor

    def membership(self, g: GroupElement) -> bool:
        w = g.word
        return len(w) == 0 or (len(w) == 1 and w[0][0] == self.id)

    def local(self, g: GroupElement):
        """Local payload of the maximal peripheral suffix."""
        w = g.word
        if w and w[-1][0] == self.id:
            return w[-1][1]
        return self.factor.p_identity()

    def coset_key(self, g: GroupElement) -> GroupElement:
        w = g.word
        if w and w[-1][0] == self.id:
            return GroupElement(w[:-1])
        return g

    def embed(self, local) -> GroupElement:
        if local == self.factor.p_identity():
            return GroupElement(())
        return GroupElement(((self.id, local),))

    def d_local(self, p, q) -> int:
        return self.factor.p_length(self.factor.p_add(p, self.factor.p_neg(q)))


class RelHypPair:
    """A group oracle together with its peripheral subgroups and a compatible
    generating set (all generators lie in some peripheral).

    ``window`` is one slot, None or the pair's last source window of a
    filling, kept by ``build_quotient_cusped`` and keyed by its radius."""

    def __init__(self, group: FreeProductOracle, peripherals: list[PeripheralSubgroup]):
        self.group = group
        self.peripherals = peripherals
        self.window = None


def make_pair(oracle: GroupOracle, peripheral_spec=None) -> RelHypPair:
    """Pair an oracle with peripherals.

    Free-product oracles take their factors as peripherals (the only layout
    the coarse-geometry code supports: every generator must be peripheral).
    A free oracle (kind "free") takes one cyclic peripheral per generator;
    its pair reports the kind "free-product".
    """
    if isinstance(oracle, FreeProductOracle) and oracle.kind == "free":
        names = None
        if peripheral_spec:
            names = peripheral_spec.get("cyclic-generators", [])
            if not (isinstance(names, list)
                    and all(isinstance(n, str) for n in names)):
                raise SchemaError("cyclic-generators: expected a list of "
                                  f"generator names, got {names!r}")
        if not names:
            names = list(oracle.gen_names)
        if sorted(names) != sorted(oracle.gen_names):
            raise UnsupportedKindError(
                "designated cyclic peripherals must cover every free generator")
        oracle, peripheral_spec = FreeProductOracle(oracle.factors), None
    if isinstance(oracle, FreeProductOracle):
        if peripheral_spec not in (None, "factors"):
            idx = peripheral_spec.get("factors", [])
            if not isinstance(idx, list):
                raise SchemaError(f"factors: expected a list, got {idx!r}")
            idx = [_json_int(i, f"factors[{k}]") for k, i in enumerate(idx)]
            if sorted(idx) != list(range(len(oracle.factors))):
                raise UnsupportedKindError(
                    "peripherals must cover every free-product factor")
        return RelHypPair(oracle, [PeripheralSubgroup(i, f)
                                   for i, f in enumerate(oracle.factors)])
    raise UnsupportedKindError(
        f"cannot attach peripherals to oracle kind {oracle.kind!r}")


def standard_f2_pair() -> RelHypPair:
    """(F_2, {<a>, <b>}) realized as a free product of two copies of Z."""
    oracle = make_oracle({"kind": "free-product",
                          "factors": [{"kind": "free-abelian", "rank": 1},
                                      {"kind": "free-abelian", "rank": 1}]})
    return make_pair(oracle)


# ---------------------------------------------------------------------------
# Dehn fillings


class FillingData:
    """A filling of a pair by per-peripheral kernels: the quotient pair and
    the projection homomorphism (syllable-wise through abelian quotients).

    Each syllable is projected once: ``image`` memoises its image syllable.
    :meth:`project_rows` projects many words at once, as syllable-id rows:
    a table of one image per distinct syllable, then one sweep over the
    columns that reduces every row in the quotient."""

    def __init__(self, pair: RelHypPair, kernel_locals: list[list]):
        self.pair = pair
        qfactors: list[AbelianFactor] = []
        for per, kernels in zip(pair.peripherals, kernel_locals):
            qfactors.append(_quotient_factor(per.factor, kernels))
        self.quotient_group = FreeProductOracle(qfactors, kind="filled-quotient")
        self.quotient_pair = RelHypPair(
            self.quotient_group,
            [PeripheralSubgroup(i, f) for i, f in enumerate(qfactors)])
        self._images: dict = {}

    def project_local(self, pid: int, p):
        src = self.pair.peripherals[pid].factor
        dst = self.quotient_group.factors[pid]
        if isinstance(dst, QuotientAbelianOracle):
            return dst.reduce_ambient(p)
        if isinstance(dst, FiniteCyclicOracle) and isinstance(src, FiniteCyclicOracle):
            return p % dst.order
        if isinstance(dst, FiniteCyclicOracle):
            return p[0] % dst.order if isinstance(p, tuple) else p % dst.order
        return p  # trivial kernel: factor unchanged

    def image(self, s: tuple) -> tuple:
        """Image (factor, payload) of the syllable s, memoised."""
        if s not in self._images:
            self._images[s] = (s[0], self.project_local(*s))
        return self._images[s]

    def project(self, g: GroupElement) -> GroupElement:
        return self.quotient_group.from_syllables(map(self.image, g.word))

    def project_rows(self, syllables: list,
                     rows: np.ndarray) -> tuple[list, np.ndarray]:
        """Images of the words given as :func:`intern_syllables` rows over
        ``syllables``, as rows over a new list of quotient syllables, padded
        on the right with at least one pad id (its length).

        ``image`` is called once per entry of ``syllables``. The columns are
        swept left to right, all rows together: an identity image is
        skipped, an image in the factor of the row's last syllable merges
        into it (through a table of the quotient factor's ``p_add``, filled
        as pairs occur), a merge to the identity pops that syllable, and
        any other image is appended. This is ``from_syllables`` row-wise."""
        factors = self.quotient_group.factors
        ids: dict = {}
        out: list = []

        def intern(s) -> int:
            if s not in ids:
                ids[s] = len(out)
                out.append(s)
            return ids[s]

        # image id per source syllable, -1 for the identity and the pad
        img = np.array([-1 if p == factors[f].p_identity() else intern((f, p))
                        for f, p in map(self.image, syllables)] + [-1],
                       dtype=np.int64)
        merged: dict = {}  # (last, image) code -> merged id, -1 identity
        n, width = rows.shape
        red = np.zeros((n, width + 1), dtype=np.int64)  # valid below top
        top = np.zeros(n, dtype=np.int64)  # syllables held per row
        for c in range(width):
            t = img[rows[:, c]]
            live = np.flatnonzero(t >= 0)
            t, h = t[live], top[live]
            last = red[live, np.maximum(h - 1, 0)]
            factor = np.array([f for f, _ in out], dtype=np.int64)
            same = (h > 0) & (factor[last] == factor[t])
            codes, inv = np.unique(last[same] * (1 << 32) + t[same],
                                   return_inverse=True)
            for code in set(codes.tolist()) - merged.keys():
                (f, p), (_, q) = out[code >> 32], out[code & 0xFFFFFFFF]
                s = factors[f].p_add(p, q)
                merged[code] = -1 if s == factors[f].p_identity() else intern((f, s))
            m = np.array([merged[x] for x in codes.tolist()],
                         dtype=np.int64)[inv]
            at, pop = live[same], m < 0
            red[at[~pop], top[at[~pop]] - 1] = m[~pop]
            top[at[pop]] -= 1
            app = live[~same]
            red[app, top[app]] = t[~same]
            top[app] += 1
        k = top.max(initial=0) + 1
        return out, np.where(np.arange(k) < top[:, None], red[:, :k], len(out))


def _quotient_factor(factor: AbelianFactor, kernels: list) -> AbelianFactor:
    if not kernels:
        if isinstance(factor, FreeAbelianOracle):
            return FreeAbelianOracle(factor.rank, factor.gen_names)
        if isinstance(factor, FiniteCyclicOracle):
            return FiniteCyclicOracle(factor.order, factor.gen_names)
        raise UnsupportedKindError(f"cannot copy factor kind {factor.kind!r}")
    if isinstance(factor, FreeAbelianOracle):
        rows = [list(p) for p in kernels]
        q = QuotientAbelianOracle(factor.rank, rows, factor.gen_names)
        if factor.rank == 1:
            # rank one quotients are plain cyclic groups; use the fast oracle
            order = q.p_order()
            if order is not None:
                return FiniteCyclicOracle(order, factor.gen_names)
        return q
    if isinstance(factor, FiniteCyclicOracle):
        order = factor.order
        for p in kernels:
            order = math.gcd(order, p % factor.order)
        return FiniteCyclicOracle(order if order else 1, factor.gen_names)
    raise UnsupportedKindError(f"cannot fill factor kind {factor.kind!r}")


def make_filling(pair: RelHypPair, kernel_spec) -> FillingData:
    """Build a filling from per-peripheral kernel descriptors.

    ``kernel_spec`` maps peripheral id (int or str) to a list of kernel
    generators, each an exponent vector or a word in that peripheral's
    letters ('a^5'). Empty lists give the trivial filling on that factor.
    """
    kernel_locals: list[list] = [[] for _ in pair.peripherals]
    items = kernel_spec.items() if isinstance(kernel_spec, dict) else enumerate(kernel_spec)
    for key, kernels in items:
        if isinstance(key, bool) or not (
                isinstance(key, (int, np.integer))
                or isinstance(key, str) and key.isdecimal()):
            raise InvalidParameterError(
                f"peripheral id {key!r} is not a non-negative integer")
        pid = int(key)
        if not 0 <= pid < len(pair.peripherals):
            raise InvalidParameterError(f"no peripheral with id {pid}")
        per = pair.peripherals[pid]
        if not isinstance(kernels, (list, tuple)):
            raise InvalidParameterError(
                f"peripheral {pid}: expected a list of kernels, got {kernels!r}")
        for k in kernels:
            if isinstance(k, str):
                local = parse_word(per.factor, k).word
            elif isinstance(k, (list, tuple)) and all(
                    isinstance(x, (int, np.integer)) and not isinstance(x, bool)
                    for x in k):
                local = per.factor.p_from_exponents(k)
            else:
                raise InvalidParameterError(
                    f"peripheral {pid}: kernel {k!r} is neither a word nor "
                    "a list of integer exponents")
            if local == per.factor.p_identity():
                continue
            kernel_locals[pid].append(local)
    return FillingData(pair, kernel_locals)


# ---------------------------------------------------------------------------
# enumeration


@dataclass(eq=False)
class BallTree:
    """A word ball with the BFS tree that built it, as arrays.

    Elements are ordered by (length, sort key). For i > 0, element i is
    ``multiply(elements[parent[i]], generators()[step[i]])`` and has word
    length ``level[i] = level[parent[i]] + 1``; the identity is element 0,
    with parent and step -1. Row i of ``rows`` holds the syllable ids of
    element i's normal form, as :func:`intern_syllables` gives them:
    indices into ``syllables`` (factor, payload), padded on the right with
    ``len(syllables)``; an abelian oracle is its own one factor.

    ``elements``, the ``GroupElement`` list, is built from the rows the
    first time it is read; the arrays alone serve images and peripheral
    rows.
    """

    oracle: GroupOracle
    syllables: list
    rows: np.ndarray
    parent: np.ndarray
    step: np.ndarray
    level: np.ndarray

    @cached_property
    def elements(self) -> list[GroupElement]:
        counts = np.count_nonzero(self.rows != len(self.syllables), axis=1)
        words = [tuple(map(self.syllables.__getitem__, r[:c]))
                 for r, c in zip(self.rows.tolist(), counts.tolist())]
        if isinstance(self.oracle, FreeProductOracle):
            return [GroupElement(w) for w in words]
        one = self.oracle.p_identity()
        return [GroupElement(w[0][1] if w else one) for w in words]


def ball_tree(oracle: GroupOracle, radius: int, cap: int = BALL_CAP) -> BallTree:
    """The ball of the given radius as a BFS tree; at most ``cap`` elements.

    Each level is built from the syllable-id rows of the one before: a
    generator merges into the last syllable when it lies in that syllable's
    factor (through a table of the factor's ``p_add``, filled as pairs
    occur) and is appended otherwise. The new elements of a level are the
    first of its candidates, taken in (parent, generator) order, that occur
    in neither of the two levels before it, which are the parent and step a
    breadth-first search keeps."""
    if radius < 0:
        raise InvalidParameterError("radius must be >= 0")
    if cap < 1:
        raise BudgetExceededError("ball elements", cap)
    if isinstance(oracle, FreeProductOracle):
        factors = oracle.factors
        gens = [g.word[0] for g in oracle.generators()]
    else:  # an abelian oracle is a product of one factor
        factors = [oracle]
        gens = [(0, p) for p in oracle.p_generators()]
    ids: dict = {}
    sylls: list = []

    def intern(s) -> int:
        if s not in ids:
            ids[s] = len(sylls)
            sylls.append(s)
        return ids[s]

    ng = len(gens)
    gen_id = np.array([intern(s) for s in gens], dtype=np.int64)
    gen_factor = np.array([fi for fi, _ in gens], dtype=np.int64)
    # (syllable, generator) -> merged syllable, -1 identity, -2 not formed yet
    merged = np.full((len(sylls) + 1, max(ng, 1)), -2, dtype=np.int64)
    # per level: rows of syllable ids padded with -1 (a word of length k has
    # at most k syllables), parents as insertion indices, generator steps
    levels = [np.full((1, radius), -1, dtype=np.int64)]
    parents, steps = [np.array([-1])], [np.array([-1])]
    total, start = 1, 0
    for _ in range(radius):
        rows = levels[-1]
        if not len(rows) or not ng:
            break
        n = len(rows)
        par = np.repeat(np.arange(n), ng)
        step = np.tile(np.arange(ng), n)
        cand = rows[par]
        cnt = np.count_nonzero(rows >= 0, axis=1)[par]
        last = cand[np.arange(len(cand)), np.maximum(cnt - 1, 0)]
        factor = np.array([fi for fi, _ in sylls] + [-1])[last]
        merge = (cnt > 0) & (factor == gen_factor[step])
        pairs = last[merge], step[merge]
        todo = merged[pairs] == -2
        for code in sorted(set((pairs[0][todo] * ng + pairs[1][todo]).tolist())):
            s, j = divmod(code, ng)
            fi, p = sylls[s]
            q = factors[fi].p_add(p, gens[j][1])
            if len(merged) < len(sylls) + 1:
                merged = np.vstack([merged, np.full_like(merged, -2)])
            merged[s, j] = -1 if q == factors[fi].p_identity() else intern((fi, q))
        at = np.flatnonzero(merge)
        cand[at, cnt[at] - 1] = merged[pairs]
        app = np.flatnonzero(~merge)
        cand[app, cnt[app]] = gen_id[step[app]]
        keys = np.concatenate(levels[-2:] + [cand])
        _, first = np.unique(keys.view(np.dtype((np.void, 8 * radius))).ravel(),
                             return_index=True)
        off = len(keys) - len(cand)
        new = np.sort(first[first >= off] - off)
        total += len(new)
        if total > cap:
            raise BudgetExceededError("ball elements", cap)
        levels.append(cand[new])
        parents.append(start + par[new])
        steps.append(step[new])
        start += n
    rows = np.concatenate(levels)
    rows[rows < 0] = len(sylls)
    order = np.lexsort(sort_columns(factors, sylls, rows).T[::-1])
    where = np.empty(len(order), dtype=np.int64)
    where[order] = np.arange(len(order))
    parent = np.concatenate(parents)[order]
    level = np.concatenate([np.full(len(r), k) for k, r in enumerate(levels)])
    return BallTree(oracle, sylls, rows[order],
                    np.where(parent < 0, -1, where[parent]),
                    np.concatenate(steps)[order], level[order])


def enumerate_ball(oracle: GroupOracle, radius: int,
                   cap: int = BALL_CAP) -> list[GroupElement]:
    """All elements of word length <= radius, ordered by (length, sort key).

    Raises BudgetExceededError when the ball has more than ``cap`` elements;
    :func:`ball_tree` gives the same elements with their BFS tree.
    """
    return ball_tree(oracle, radius, cap).elements
