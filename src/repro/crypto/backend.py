"""Pluggable bigint-arithmetic backend for the crypto kernel.

Every Paillier operation in this reproduction bottoms out in four modular
primitives — ``powmod``, ``mulmod``, ``invert`` and ``multi_powmod`` (a
product of powers, the protocols' strip step) — executed on integers of 1-2
kilobits.  The paper's complexity analysis (Section 4.4) counts protocol
cost in exactly these operations, so making them fast multiplies through every
protocol, shard and benchmark figure.

This module routes all of that traffic through a small backend interface:

* :class:`PythonBackend` — the default; plain ``pow``/``%`` on CPython's
  arbitrary-precision integers, with ``pow(a, -1, m)`` for C-speed modular
  inversion and a shared-squaring (Straus) ``multi_powmod``.  Always
  available.
* :class:`Gmpy2Backend` — used automatically when ``gmpy2`` is importable;
  GMP's assembly kernels are typically 5-20x faster on 512/1024-bit operands.
  The repository never *requires* gmpy2 — it is detected, never installed.

Backend selection (first match wins):

1. an explicit :func:`set_backend` call (the CLI's ``--crypto-backend`` flag);
2. the ``REPRO_CRYPTO_BACKEND`` environment variable (``python``, ``gmpy2``
   or ``auto``);
3. ``auto``: gmpy2 when importable, pure Python otherwise.

The module also provides :class:`FixedBaseExp`, a fixed-base windowed
exponentiation table (the "comb" method).  For a fixed base ``b`` it
precomputes ``b**(d << w*i)`` for every window row ``i`` and digit ``d``,
after which ``b**e`` costs only ``ceil(bits/w)`` modular multiplications and
*zero* squarings — 5-7x faster than a cold ``pow`` at K=512 even from pure
Python.  The Paillier layer uses it for the recurring obfuscator base
``h = y**N mod N**2`` (see :mod:`repro.crypto.paillier`), turning batched
encryption into a stream of cheap multiplications.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Sequence

from repro.exceptions import ConfigurationError, CryptoError

__all__ = [
    "BigintBackend",
    "PythonBackend",
    "Gmpy2Backend",
    "FixedBaseExp",
    "available_backends",
    "get_backend",
    "set_backend",
    "resolve_backend",
    "backend_from_env",
    "BACKEND_ENV_VAR",
]

#: Environment variable consulted when no backend was set programmatically.
BACKEND_ENV_VAR = "REPRO_CRYPTO_BACKEND"


def _check_multi_powmod(bases: Sequence[int],
                        exponents: Sequence[int]) -> None:
    """Argument contract shared by every ``multi_powmod`` implementation."""
    if len(bases) != len(exponents):
        raise CryptoError(
            f"multi_powmod needs one exponent per base "
            f"({len(bases)} bases, {len(exponents)} exponents)")
    if any(exponent < 0 for exponent in exponents):
        raise CryptoError("multi_powmod requires non-negative exponents")


#: Sliding-window width of :meth:`PythonBackend.multi_powmod`: 16 odd powers
#: per base, one multiplication per ~6 exponent bits.
_MULTI_POW_WINDOW = 5


class BigintBackend:
    """Interface of a bigint-arithmetic backend (four modular primitives)."""

    #: short name used by the CLI flag and the env var ("python", "gmpy2")
    name = "abstract"

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        """``base ** exponent mod modulus`` (exponent >= 0)."""
        raise NotImplementedError

    def mulmod(self, a: int, b: int, modulus: int) -> int:
        """``a * b mod modulus``."""
        raise NotImplementedError

    def invert(self, a: int, modulus: int) -> int:
        """Multiplicative inverse of ``a`` modulo ``modulus``.

        Raises:
            CryptoError: when ``a`` is not invertible.
        """
        raise NotImplementedError

    def multi_powmod(self, bases: Sequence[int], exponents: Sequence[int],
                     modulus: int) -> int:
        """``prod(bases[i] ** exponents[i]) mod modulus`` (exponents >= 0).

        The shape of every strip step of the protocols: SSED's
        ``prod_j E(d_j)^(N - 2 r_j)`` and SM's
        ``E(a)^(N - r_b) * E(b)^(N - r_a)``.  This default is the product of
        the backend's own :meth:`powmod`, which :class:`Gmpy2Backend` keeps:
        GMP's Montgomery ``powmod`` is not beaten by a Python-level loop, and
        gmpy2 is not installed in the development image, so no interleaved
        variant could be measured against it.  An empty product is
        ``1 mod modulus``.

        Raises:
            CryptoError: on mismatched lengths or a negative exponent.
        """
        _check_multi_powmod(bases, exponents)
        acc = 1 % modulus
        for base, exponent in zip(bases, exponents):
            acc = self.mulmod(acc, self.powmod(base, exponent, modulus),
                              modulus)
        return acc

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


class PythonBackend(BigintBackend):
    """Pure-Python backend on CPython's built-in arbitrary-precision ints."""

    name = "python"

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        return pow(base, exponent, modulus)

    def mulmod(self, a: int, b: int, modulus: int) -> int:
        return (a * b) % modulus

    def invert(self, a: int, modulus: int) -> int:
        try:
            return pow(a, -1, modulus)
        except ValueError as exc:
            raise CryptoError(
                f"{a} has no inverse modulo {modulus}") from exc

    def multi_powmod(self, bases: Sequence[int], exponents: Sequence[int],
                     modulus: int) -> int:
        """Straus / interleaved sliding windows: one squaring chain for all.

        ``m`` separate ``pow`` calls repeat the ``~bits`` squarings of the
        exponent ``m`` times.  Here every base gets a table of its 16 odd
        powers, every exponent is cut right-to-left into odd 5-bit digits
        (``~bits/6`` of them), and a single accumulator is squared once per
        bit position while multiplying in whichever table entries are due at
        that position: ``bits + m * (16 + bits/6)`` modular multiplications
        instead of ``m * (bits + bits/6)``.  A 1024-bit mulmod costs ~4 us
        against ~0.15 us of interpreter overhead per step, so the Python loop
        beats C-level ``pow`` calls by the arithmetic alone — measured on the
        development box 1.6x / 2.2x / 2.4x for 2 / 3 / 4 bases at K=512 and
        2.2x for 3 bases at K=1024 (``bench_crypto_kernel.py`` gates it).

        The result is the same integer as the product of ``pow`` calls.  A
        single base falls through to :meth:`powmod`.  There is no key-size
        switch: the two cross near K=64, and below that the table build
        costs a call 5-15 us more than the shared squarings save — accepted,
        since only toy test keys pay it.
        """
        _check_multi_powmod(bases, exponents)
        if len(bases) == 1:
            return self.powmod(bases[0], exponents[0], modulus)
        mask = (1 << _MULTI_POW_WINDOW) - 1
        # due[position]: table entries to multiply in once the accumulator
        # has been squared down to that bit position.
        due: list[list[int] | None] = [None] * max(
            (exponent.bit_length() for exponent in exponents), default=0)
        for base, exponent in zip(bases, exponents):
            if not exponent:
                continue
            power = base % modulus
            square = power * power % modulus
            odd_powers = [power]
            for _ in range(mask >> 1):
                power = power * square % modulus
                odd_powers.append(power)
            position = 0
            while exponent:
                # skip to the next set bit; the digit starting there is odd
                skip = (exponent & -exponent).bit_length() - 1
                exponent >>= skip
                position += skip
                entry = odd_powers[(exponent & mask) >> 1]
                if due[position] is None:
                    due[position] = [entry]
                else:
                    due[position].append(entry)
                exponent >>= _MULTI_POW_WINDOW
                position += _MULTI_POW_WINDOW
        acc = 1
        for entries in reversed(due):
            acc = acc * acc % modulus
            if entries:
                for entry in entries:
                    acc = acc * entry % modulus
        return acc % modulus


class Gmpy2Backend(BigintBackend):
    """GMP-accelerated backend; constructed only when ``gmpy2`` imports."""

    name = "gmpy2"

    def __init__(self) -> None:
        import gmpy2  # raises ImportError when unavailable

        self._gmpy2 = gmpy2
        self._mpz = gmpy2.mpz

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        return int(self._gmpy2.powmod(self._mpz(base), exponent, modulus))

    def mulmod(self, a: int, b: int, modulus: int) -> int:
        return int(self._mpz(a) * b % modulus)

    def invert(self, a: int, modulus: int) -> int:
        try:
            return int(self._gmpy2.invert(self._mpz(a), modulus))
        except ZeroDivisionError as exc:
            raise CryptoError(
                f"{a} has no inverse modulo {modulus}") from exc


def _try_gmpy2() -> Gmpy2Backend | None:
    """Instantiate the gmpy2 backend, or ``None`` when gmpy2 is missing."""
    try:
        return Gmpy2Backend()
    except ImportError:
        return None


def available_backends() -> list[str]:
    """Names of the backends usable on this machine (always incl. python)."""
    names = ["python"]
    if _try_gmpy2() is not None:
        names.append("gmpy2")
    return names


def resolve_backend(name: str) -> BigintBackend:
    """Build a backend instance from its name (``python``/``gmpy2``/``auto``).

    ``auto`` prefers gmpy2 when importable and falls back to pure Python.

    Raises:
        ConfigurationError: for an unknown name, or when ``gmpy2`` was
            requested explicitly but is not importable.
    """
    normalized = name.strip().lower()
    if normalized == "python":
        return PythonBackend()
    if normalized == "gmpy2":
        backend = _try_gmpy2()
        if backend is None:
            raise ConfigurationError(
                "crypto backend 'gmpy2' requested but gmpy2 is not importable"
            )
        return backend
    if normalized == "auto":
        return _try_gmpy2() or PythonBackend()
    raise ConfigurationError(
        f"unknown crypto backend {name!r} (choose from python, gmpy2, auto)"
    )


def backend_from_env() -> BigintBackend:
    """Resolve the backend from ``REPRO_CRYPTO_BACKEND`` (default ``auto``)."""
    return resolve_backend(os.environ.get(BACKEND_ENV_VAR, "auto"))


_active: BigintBackend | None = None
_active_lock = threading.Lock()


def get_backend() -> BigintBackend:
    """The process-wide active backend (resolved lazily on first use)."""
    global _active
    if _active is None:
        with _active_lock:
            if _active is None:
                _active = backend_from_env()
    return _active


def set_backend(backend: BigintBackend | str | None) -> BigintBackend:
    """Select the process-wide backend.

    Args:
        backend: a :class:`BigintBackend` instance, a name accepted by
            :func:`resolve_backend`, or ``None`` to re-resolve from the
            environment on next use.

    Returns:
        The backend now active (for ``None``, the freshly re-resolved one).
    """
    global _active
    with _active_lock:
        if backend is None:
            _active = None
        elif isinstance(backend, str):
            _active = resolve_backend(backend)
        else:
            _active = backend
    return get_backend()


class FixedBaseExp:
    """Fixed-base windowed exponentiation (comb method) for one base.

    Precomputes ``table[i][d] = base ** (d << (window * i)) mod modulus`` for
    every window position ``i`` and digit ``d in [1, 2**window)``.  A later
    :meth:`pow` call then assembles ``base ** e`` as the product of one table
    entry per non-zero exponent digit: at most ``ceil(max_exponent_bits /
    window)`` modular multiplications and no squarings at all.

    The precomputation costs roughly ``rows * 2**window`` multiplications and
    ``rows * window`` squarings, so the table pays off once more than a few
    dozen exponentiations share the base.  Paillier obfuscator generation
    (thousands of exponentiations of one ``h = y**N``) is the ideal consumer.

    Args:
        base: the fixed base.
        modulus: the modulus (e.g. ``N**2``).
        max_exponent_bits: largest exponent bit length :meth:`pow` must
            support; larger exponents raise :class:`CryptoError`.
        window: window width in bits (default 8; table memory grows as
            ``2**window`` per row while per-call work shrinks as ``1/window``).
        backend: backend used for the precomputation and the per-call
            multiplications (default: the active backend).
    """

    def __init__(self, base: int, modulus: int, max_exponent_bits: int,
                 window: int = 8, backend: BigintBackend | None = None) -> None:
        if max_exponent_bits < 1:
            raise CryptoError("max_exponent_bits must be positive")
        if not 1 <= window <= 16:
            raise CryptoError("window width must be in [1, 16]")
        self.base = base % modulus
        self.modulus = modulus
        self.window = window
        self.max_exponent_bits = max_exponent_bits
        self.backend = backend if backend is not None else get_backend()
        self.rows = (max_exponent_bits + window - 1) // window
        self._digit_mask = (1 << window) - 1
        self._table = self._build()

    def _build(self) -> list[list[int]]:
        mulmod = self.backend.mulmod
        modulus = self.modulus
        digits = 1 << self.window
        table: list[list[int]] = []
        row_base = self.base
        for _ in range(self.rows):
            row = [1] * digits
            acc = 1
            for d in range(1, digits):
                acc = mulmod(acc, row_base, modulus)
                row[d] = acc
            table.append(row)
            # next row's base is row_base ** (2 ** window)
            for _ in range(self.window):
                row_base = mulmod(row_base, row_base, modulus)
        return table

    def pow(self, exponent: int) -> int:
        """``base ** exponent mod modulus`` via table lookups.

        Uses the *currently active* backend for the multiplications (the
        table entries are plain integers, independent of the backend that
        built them), so a later :func:`set_backend` call takes effect even
        on combs cached inside long-lived key objects.

        Args:
            exponent: non-negative, at most ``max_exponent_bits`` bits.
        """
        if exponent < 0:
            raise CryptoError("FixedBaseExp.pow requires a non-negative exponent")
        if exponent.bit_length() > self.max_exponent_bits:
            raise CryptoError(
                f"exponent of {exponent.bit_length()} bits exceeds the "
                f"precomputed range of {self.max_exponent_bits} bits"
            )
        mulmod = get_backend().mulmod
        modulus = self.modulus
        mask = self._digit_mask
        window = self.window
        table = self._table
        acc = 1
        row = 0
        while exponent:
            digit = exponent & mask
            if digit:
                acc = mulmod(acc, table[row][digit], modulus)
            exponent >>= window
            row += 1
        return acc

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"FixedBaseExp(bits={self.max_exponent_bits}, "
                f"window={self.window}, rows={self.rows})")
