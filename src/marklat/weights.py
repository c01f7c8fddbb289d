"""Exact-rational valuations of the marks and their word sums.

An admissible valuation f assigns a rational to every mark so that the
values respect the symbol chain:

    f(pos(r)) >= ... >= f(pos(1)) >= 0 > f(neg(1)) >= ... >= f(neg(n-r))

(the zero mark is pinned at 0; the single strict step sits between the
zero mark and the first negative mark).  When the values additionally
sum to something nonnegative over all n marks, the valuation carries the
*weight* flag.  The sum of a word is the sum of f over its string
letters, i.e. over the subset of marks it uses.  Every computation in
this module is exact: values are `fractions.Fraction`s, and the induced
labeling compares integer sums after clearing denominators.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from importlib import resources
from math import lcm
from typing import Sequence

# enumerate_words is looked up here by bench/spans.py, which traces it
from .core import (  # noqa: F401
    BooleanMap,
    LatticeParams,
    Symbol,
    Word,
    _check_params,
    _check_word,
    _subset_sums,
    enumerate_words,
)
from .errors import DomainError, ValidationError

__all__ = [
    "NrFunction",
    "validate",
    "sigma",
    "induced_map",
    "alpha_count",
    "phi_count",
    "nr_function_to_json",
    "nr_function_from_json",
    "load_nr_function",
    "load_f85",
    "random_nr_function",
]

# a value given as a string must match schemas/nr_function.json's pattern
_RATIONAL_TEXT = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")
# the keys schemas/nr_function.json allows
_JSON_KEYS = ("n", "r", "tilde", "bar", "zero")
# bounds of the numerators and denominators random_nr_function draws
_MAX_NUMERATOR = 6
_MAX_DENOMINATOR = 4


@dataclass(frozen=True)
class NrFunction:
    """An admissible valuation: exact rational values on the marks.

    ``pos_values[k]`` is the value at pos(k+1) and ``neg_values[k]`` the
    value at neg(k+1), both ascending in mark index.  Construction
    validates the chain, so every live instance is admissible.
    """

    params: LatticeParams
    pos_values: tuple
    neg_values: tuple

    def __post_init__(self):
        _check_params(self.params)
        r, m = self.params.r, self.params.num_neg
        if len(self.pos_values) != r:
            raise ValidationError(f"expected {r} positive values, got {len(self.pos_values)}")
        if len(self.neg_values) != m:
            raise ValidationError(f"expected {m} negative values, got {len(self.neg_values)}")
        pv = tuple(_as_fraction(v, f"pos({k + 1})") for k, v in enumerate(self.pos_values))
        nv = tuple(_as_fraction(v, f"neg({k + 1})") for k, v in enumerate(self.neg_values))
        object.__setattr__(self, "pos_values", pv)
        object.__setattr__(self, "neg_values", nv)
        if r and pv[0] < 0:
            raise ValidationError(f"pos(1) must carry a value >= 0, got {pv[0]}")
        for k in range(1, r):
            if pv[k] < pv[k - 1]:
                raise ValidationError(
                    f"pos({k + 1}) must carry a value >= pos({k}) "
                    f"(got {pv[k]} < {pv[k - 1]})"
                )
        if m and nv[0] >= 0:
            raise ValidationError(f"neg(1) must carry a value < 0, got {nv[0]}")
        for k in range(1, m):
            if nv[k] > nv[k - 1]:
                raise ValidationError(
                    f"neg({k + 1}) must carry a value <= neg({k}) "
                    f"(got {nv[k]} > {nv[k - 1]})"
                )

    @cached_property
    def total(self) -> Fraction:
        """Sum of the values over all n nonzero marks."""
        return sum(self.pos_values, Fraction(0)) + sum(self.neg_values, Fraction(0))

    @cached_property
    def is_weight(self) -> bool:
        """Weight flag: the total over all marks is nonnegative."""
        return self.total >= 0

    @cached_property
    def _by_bit(self) -> tuple:
        # value per mask bit, following the Word bit layout
        return tuple(self.pos_values) + tuple(self.neg_values)

    def value_of(self, symbol: Symbol) -> Fraction:
        if not isinstance(symbol, Symbol):
            raise DomainError(f"not a symbol: {symbol!r}")
        if symbol.is_zero:
            return Fraction(0)
        if not symbol.in_alphabet(self.params):
            raise DomainError(f"{symbol} is not a mark of {self.params}")
        if symbol.is_pos:
            return self.pos_values[symbol.value - 1]
        return self.neg_values[-symbol.value - 1]

    def __str__(self):
        pos = ", ".join(str(v) for v in self.pos_values)
        neg = ", ".join(str(v) for v in self.neg_values)
        return f"NrFunction({self.params}; pos=[{pos}], neg=[{neg}])"


def _as_fraction(value, what: str) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, (bool, float)):
        raise ValidationError(
            f"{what} must be exact (int, string or Fraction), got {type(value).__name__}"
        )
    if isinstance(value, str) and not _RATIONAL_TEXT.fullmatch(value):
        raise ValidationError(f"{what} must be an integer or a fraction like -1/3, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ValidationError(f"{what} is not a rational: {value!r} ({exc})") from None


def validate(
    params: LatticeParams,
    pos_values: Sequence,
    neg_values: Sequence,
    zero=0,
) -> NrFunction:
    """Check the zero mark and build the valuation, which converts each
    value once and names any violated chain inequality."""
    if _as_fraction(zero, "the zero-mark value") != 0:
        raise ValidationError("the zero mark must carry the value 0")
    return NrFunction(params, tuple(pos_values), tuple(neg_values))


def _check_fn(f) -> None:
    """A domain error unless f is an NrFunction."""
    if not isinstance(f, NrFunction):
        raise DomainError(f"need an NrFunction, got {type(f).__name__}")


def sigma(f: NrFunction, w: Word) -> Fraction:
    """Sum of f over the letters of w (zeros contribute nothing)."""
    _check_fn(f)
    _check_word(w)
    if w.params != f.params:
        raise DomainError(f"word from {w.params} against valuation on {f.params}")
    total = Fraction(0)
    by_bit = f._by_bit
    m = w.mask
    while m:
        b = m & -m
        total += by_bit[b.bit_length() - 1]
        m ^= b
    return total


def induced_map(f: NrFunction):
    """The boolean map sending a word to P exactly when its sum is >= 0."""
    _check_fn(f)
    # one common multiple of the denominators turns every sum into an int
    # of the same sign; sums[m] is the sum over the marks in mask m
    scale = lcm(*(v.denominator for v in f._by_bit))
    sums = _subset_sums(0, [v.numerator * (scale // v.denominator) for v in f._by_bit])
    # bit m of the mask is word m's sign: read the signs highest mask first
    mask = int("".join(["1" if s >= 0 else "0" for s in reversed(sums)]), 2)
    return BooleanMap._from_mask(f.params, mask)


def alpha_count(f: NrFunction) -> int:
    """How many of the 2^n words have nonnegative sum (the all-zero word
    always counts)."""
    return induced_map(f).p_count


def phi_count(f: NrFunction, d: int) -> int:
    """How many words on exactly d marks have nonnegative sum."""
    return induced_map(f).p_count_d(d)


def nr_function_to_json(f: NrFunction) -> dict:
    """JSON form: {n, r, tilde, bar} with values as exact strings.

    ``tilde[k]`` is the value at pos(k+1), ``bar[k]`` at neg(k+1).
    """
    _check_fn(f)
    return {
        "n": f.params.n,
        "r": f.params.r,
        "tilde": [str(v) for v in f.pos_values],
        "bar": [str(v) for v in f.neg_values],
    }


def nr_function_from_json(data: dict) -> NrFunction:
    if not isinstance(data, dict):
        raise ValidationError("valuation JSON must be an object")
    missing = [k for k in ("n", "r", "tilde", "bar") if k not in data]
    if missing:
        raise ValidationError(f"valuation JSON lacks keys: {', '.join(missing)}")
    unknown = [str(k) for k in data if k not in _JSON_KEYS]
    if unknown:
        raise ValidationError(f"valuation JSON has unknown keys: {', '.join(unknown)}")
    if type(data["n"]) is not int or type(data["r"]) is not int:
        raise ValidationError("n and r must be integers")
    if type(data["tilde"]) is not list or type(data["bar"]) is not list:
        raise ValidationError("tilde and bar must be arrays")
    params = LatticeParams(data["n"], data["r"])
    return validate(params, data["tilde"], data["bar"], data.get("zero", 0))


def load_nr_function(path) -> NrFunction:
    """Read a valuation from a JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read valuation file {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # bad syntax, bad UTF-8 or too many digits; or nesting too deep
        raise ValidationError(f"valuation file {path} cannot be parsed as JSON: {exc}") from None
    return nr_function_from_json(data)


def load_f85() -> NrFunction:
    """The bundled example valuation on L(8, 5): five marks at 1/5 and
    three at -1/3 (total 0, so the weight flag is set)."""
    text = resources.files("marklat.data").joinpath("f85.json").read_text("utf-8")
    return nr_function_from_json(json.loads(text))


def random_nr_function(
    params: LatticeParams,
    rng,
    require_weight: bool = False,
) -> NrFunction:
    """Draw an admissible valuation with bounded random numerators and
    denominators.  Each side is sorted into chain order; under
    ``require_weight`` a negative total is repaired by raising the top
    positive value.  Deterministic for a given rng state."""
    _check_params(params)
    r, m = params.r, params.num_neg
    if require_weight and r == 0 and params.n > 0:
        raise DomainError(
            "no weight valuation exists when every mark is negative"
        )
    pos = sorted(
        Fraction(rng.randint(0, _MAX_NUMERATOR), rng.randint(1, _MAX_DENOMINATOR))
        for _ in range(r)
    )
    neg = sorted(
        (
            Fraction(-rng.randint(1, _MAX_NUMERATOR), rng.randint(1, _MAX_DENOMINATOR))
            for _ in range(m)
        ),
        reverse=True,
    )
    if require_weight:
        deficit = sum(pos, Fraction(0)) + sum(neg, Fraction(0))
        if deficit < 0:
            pos[-1] -= deficit  # raising the largest value keeps the chain
    return NrFunction(params, tuple(pos), tuple(neg))
