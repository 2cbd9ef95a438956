"""Arbitrary-precision natural numbers with recursion-equation semantics.

A natural is a plain Python ``int`` restricted to non-negative values; the
module functions validate that restriction at the boundary and raise
:class:`~settower.errors.NotANatural` otherwise.  Arithmetic is performed by
the platform big integers for speed.  The defining recursion equations

    m + 0 = m           m + s(n) = s(m + n)
    m * 0 = 0           m * s(n) = (m * n) + m
    m ^ 0 = 1           m ^ s(n) = (m ^ n) * m

are not the implementation; they are the oracle the test suite replays
against these functions.  Two-argument recursions are obtained by currying
the first argument into the step function of :func:`recurse`.

Decimal text has its owner here, both ways: every layer reads a run of
digits through ``_read_decimal`` and writes an int through
``_write_decimal``, and these, with ``_check_printable`` for a result whose
size is known before it is built, are the only readers of the interpreter's
int<->str digit limit.  Past it they raise SizeLimit, not ValueError.
"""

from __future__ import annotations

import math
import sys
from _thread import allocate_lock

from .errors import NotANatural, SizeLimit, Underflow


def _nat(n, name="value"):
    """n itself when it is a natural number (an int, not a bool, >= 0);
    NotANatural otherwise.  The one such check of every layer."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise NotANatural(f"{name} must be a natural number, got {n!r}")
    return n


def successor(n: int) -> int:
    """sigma(n) = n + 1."""
    return _nat(n) + 1


def add(m: int, n: int) -> int:
    return _nat(m) + _nat(n)


def mul(m: int, n: int) -> int:
    return _nat(m) * _nat(n)


def pow(m: int, n: int) -> int:  # noqa: A001 - mirrors the operation name
    return _nat(m, "base") ** _nat(n, "exponent")


def sub_partial(m: int, n: int) -> int:
    """The unique p with m + p = n, defined only when m <= n."""
    _nat(m)
    _nat(n)
    if m > n:
        raise Underflow(f"sub_partial({m}, {n}): {m} > {n}")
    return n - m


def triangular(m: int) -> int:
    """s(m), the m-th triangular number: 2*s(m) = m*(m+1) exactly."""
    _nat(m)
    return m * (m + 1) // 2


def pair(p: int, q: int) -> int:
    """The pairing bijection N^2 -> N, pair(p, q) = s(p + q) + q."""
    _nat(p)
    _nat(q)
    return triangular(p + q) + q


def unpair(r: int) -> tuple[int, int]:
    """Inverse of :func:`pair`.

    Finds the unique m with s(m) <= r < s(m+1); then q = r - s(m) and
    p = m - q.  The search is closed-form via an exact integer square root:
    with t = isqrt(8r + 1) and m = (t - 1) // 2,
    (2m + 1)^2 <= t^2 <= 8r + 1 < (t + 1)^2 <= (2m + 3)^2, and
    8s(m) + 1 = (2m + 1)^2, so s(m) <= r < s(m+1) needs no correction.
    """
    _nat(r)
    m = (math.isqrt(8 * r + 1) - 1) // 2
    q = r - triangular(m)
    p = m - q
    return p, q


# T in the annotations below is the type of the sequence's values.  The
# annotations stay unevaluated strings (see the __future__ import), so the
# module need not import typing to name it.
class _Recursion:
    """Lazy, memoized realization of a recursively defined sequence.

    g(0) = seed and g(n+1) = step(g(n)).  Values are produced on demand and
    cached, so the step function runs at most once per index no matter how
    often or from how many threads the sequence is queried.
    """

    __slots__ = ("_step", "_memo", "_lock")

    def __init__(self, seed: T, step: Callable[[T], T]):
        self._step = step
        self._memo = [seed]
        self._lock = allocate_lock()

    def __call__(self, n: int) -> T:
        _nat(n, "index")
        if n < len(self._memo):
            return self._memo[n]
        with self._lock:
            while len(self._memo) <= n:
                self._memo.append(self._step(self._memo[-1]))
            return self._memo[n]

    def evaluations(self) -> int:
        """How many times the step function has run so far."""
        return len(self._memo) - 1


def recurse(seed: T, step: Callable[[T], T]) -> Callable[[int], T]:
    """Unique g with g(0) = seed and g(s(n)) = step(g(n))."""
    return _Recursion(seed, step)


def _digit_limit() -> int:
    """The interpreter's int<->str digit limit; 0, for none, where sys has
    no getter (before Python 3.11)."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else 0


def _past_the_limit(what: str, doing: str) -> SizeLimit:
    return SizeLimit(
        f"{what} has more than {_digit_limit()} decimal digits, "
        f"the interpreter's limit for {doing} integers"
    )


def _read_decimal(text: str) -> int | None:
    """The int a nonempty run of ASCII digits spells; None for any other
    text, since int() also reads other Unicode digits, signs, spaces and
    underscores.  Past the interpreter's digit limit int() raises ValueError
    before it converts anything; that ends as SizeLimit here."""
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:
        raise _past_the_limit("input", "reading") from None


def _write_decimal(k: int) -> str:
    """Decimal text of an int; SizeLimit where str() would raise ValueError
    for passing the interpreter's digit limit."""
    try:
        return str(k)
    except ValueError:
        raise _past_the_limit("result", "printing") from None


def _check_printable(digits: int) -> None:
    """Raise the SizeLimit that _write_decimal would raise for a result of
    at least `digits` decimal digits, before that result is built."""
    limit = _digit_limit()
    if limit and digits > limit:
        raise _past_the_limit("result", "printing")


def parse_nat(text: str) -> int:
    """Decimal string of ASCII digits to natural; the inverse of ``str``."""
    n = _read_decimal(text.strip())
    if n is None:
        raise NotANatural(f"not a decimal natural: {text!r}")
    return n


def square_and_multiply(x, m: int, times):
    """x^m for m >= 1 from O(log m) calls of the product times, so the
    result is a DAG of depth O(log m) rather than a chain of length m."""
    acc = None
    while True:
        if m & 1:
            acc = x if acc is None else times(acc, x)
        m >>= 1
        if not m:
            return acc
        x = times(x, x)
