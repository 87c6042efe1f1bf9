"""Pluggable bigint-arithmetic backend for the crypto kernel.

Every Paillier operation in this reproduction bottoms out in five modular
primitives — ``powmod``, ``mulmod``, ``invert``, ``invert_batch`` (a whole
vector of negations for one inversion) and ``multi_powmod`` (a product of
powers, the protocols' strip step) — executed on integers of 1-2 kilobits.
The paper's complexity analysis (Section 4.4) counts protocol cost in
exactly these operations, so making them fast multiplies through every
protocol, shard and benchmark figure.

This module routes all of that traffic through a small backend interface:

* :class:`PythonBackend` — plain ``pow``/``%`` on CPython's
  arbitrary-precision integers, with ``pow(a, -1, m)`` for C-speed modular
  inversion, a shared-squaring (Straus) ``multi_powmod`` and the
  :class:`FixedBaseExp` comb table for fixed-base powers.  Always available.
* :class:`OpenSSLBackend` — ``BN_mod_exp`` of the ``libcrypto`` the
  interpreter already maps (``ssl`` and ``hashlib`` link it), called through
  :mod:`ctypes`: about 11x faster than ``pow`` at the paper's key sizes, and
  the GIL is released for the length of each call.  ``powmod`` and
  ``multi_powmod`` are native — the latter takes its bases two at a time
  through ``BN_mod_exp2_mont``, one squaring chain per pair; inversion is
  not: ``BN_mod_inverse`` measured level with ``pow(a, -1, m)``.
  No dependency is installed and no native code is built; when the library
  or one of the BN symbols used is missing the backend is simply unavailable.

Inversion is the one primitive neither backend makes cheap (104-132 us at
K=512, two thirds of a native power), so a *vector* of them is never ``n``
inversions: :meth:`BigintBackend.invert_batch` is Montgomery's simultaneous
inversion [Math. Comp. 48 (1987)] — one ``pow(product, -1, m)`` and
``3(n - 1)`` multiplications, 17 against 104 us per element at 36 elements.

Backend selection (first match wins):

1. an explicit :func:`set_backend` call (the CLI's ``--crypto-backend`` flag);
2. the ``REPRO_CRYPTO_BACKEND`` environment variable (``python``,
   ``openssl`` or ``auto``);
3. ``auto``: libcrypto when it loads and exposes the BN functions used,
   pure Python otherwise.  An explicit ``openssl`` that cannot load raises
   :class:`ConfigurationError` instead of falling back.

Fixed-base exponentiation — the recurring obfuscator base ``h = y**N mod
N**2`` of batched encryption (see :mod:`repro.crypto.paillier`) — is the
backend's business too (:meth:`BigintBackend.fixed_base`): on the python
backend it is :class:`FixedBaseExp`, a windowed "comb" table that assembles
``h**s`` from ``ceil(bits/8)`` multiplications and no squarings, 5-7x faster
than a cold ``pow`` at K=512; on the native backend one ``BN_mod_exp`` costs
*less* than those 64 Python-level multiplications (0.17 against 0.25 ms at
K=512, 1.1 against 1.7 ms at K=1024) and needs no 65-450 ms table per key,
and :class:`FixedBasePower` costs less again: one precomputed ``base **
2**half`` turns every power into a ``BN_mod_exp2_mont`` on two half-length
exponents (1.4x at K=512, 1.5x at K=1024).

Security note: ``BN_mod_exp`` is called without ``BN_FLG_CONSTTIME``, so it
is no more constant-time than the CPython ``pow`` it replaces — C2's
``p - 1`` decryption exponent is as exposed to a co-resident timing attacker
as before, and the half-size powers of its CRT obfuscators (modulo ``p**2``
and ``q**2``, see :mod:`repro.crypto.paillier`) are exposed the same way.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import functools
import os
import threading
from typing import Sequence

from repro.exceptions import ConfigurationError, CryptoError

__all__ = [
    "BigintBackend",
    "PythonBackend",
    "OpenSSLBackend",
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
    """Interface of a bigint-arithmetic backend (five modular primitives).

    A backend supplies ``powmod``; the rest default to it and to CPython's
    integer arithmetic.
    """

    #: short name used by the CLI flag and the env var ("python", "openssl")
    name = "abstract"

    def library_version(self) -> str | None:
        """Version string of the native library behind the backend, if any."""
        return None

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        """``base ** exponent mod modulus`` (exponent >= 0)."""
        raise NotImplementedError

    def mulmod(self, a: int, b: int, modulus: int) -> int:
        """``a * b mod modulus`` — on Python integers under every backend: a
        1024-bit product costs ~2 us, less than converting its operands."""
        return (a * b) % modulus

    def invert(self, a: int, modulus: int) -> int:
        """Multiplicative inverse of ``a`` modulo ``modulus`` — CPython's
        ``pow(a, -1, m)`` under every backend (``BN_mod_inverse`` measured
        level with it: 119 against 123 us at K=512, 512 against 603 at
        K=1024, slower below ~200 bits).

        Raises:
            CryptoError: when ``a`` is not invertible.
        """
        try:
            return pow(a, -1, modulus)
        except ValueError as exc:
            raise CryptoError(
                f"{a} has no inverse modulo {modulus}") from exc

    def invert_batch(self, values: Sequence[int], modulus: int) -> list[int]:
        """The inverse of every value modulo ``modulus``, for one inversion.

        Montgomery's trick: invert the running product once, then peel the
        factors off back to front — ``3(n - 1)`` multiplications beside the
        one :meth:`invert`.  Element for element the integer ``invert``
        returns; an empty batch is ``[]``.

        Raises:
            CryptoError: when some value is not invertible — naming the
                first such *value* (the failed inversion only knows their
                product).
        """
        if not values:
            return []
        prefixes = []
        product = 1
        for value in values:
            prefixes.append(product)
            product = product * value % modulus
        try:
            inverse = self.invert(product, modulus)
        except CryptoError:
            for value in values:
                self.invert(value, modulus)
            raise
        inverses = [0] * len(values)
        for index in range(len(values) - 1, -1, -1):
            inverses[index] = prefixes[index] * inverse % modulus
            inverse = inverse * values[index] % modulus
        return inverses

    def multi_powmod(self, bases: Sequence[int], exponents: Sequence[int],
                     modulus: int) -> int:
        """``prod(bases[i] ** exponents[i]) mod modulus`` (exponents >= 0).

        The shape of every strip step of the protocols: SSED's
        ``prod_j E(d_j)^(N - 2 r_j)`` and SM's
        ``E(a)^(N - r_b) * E(b)^(N - r_a)``.  This default is the product of
        the backend's own :meth:`powmod`; both backends override it with a
        shared squaring chain, and :class:`OpenSSLBackend` falls back here
        for the moduli its native route never handled.  An empty product is
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

    def fixed_base(self, base: int, modulus: int,
                   max_exponent_bits: int) -> "FixedBasePower | FixedBaseExp":
        """An exponentiator for many powers of one ``base``.

        Returns an object whose ``pow(exponent)`` is ``base ** exponent mod
        modulus`` for ``0 <= exponent < 2**max_exponent_bits`` and whose
        ``base`` attribute is the reduced base.  This default answers each
        power with one two-base :meth:`multi_powmod` on half-length
        exponents (:class:`FixedBasePower`); a backend whose ``powmod`` is
        dearer than a table of multiplications overrides it
        (:class:`PythonBackend`).
        """
        return FixedBasePower(base, modulus, max_exponent_bits, backend=self)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


class PythonBackend(BigintBackend):
    """Pure-Python backend on CPython's built-in arbitrary-precision ints."""

    name = "python"

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        return pow(base, exponent, modulus)

    def fixed_base(self, base: int, modulus: int,
                   max_exponent_bits: int) -> "FixedBaseExp":
        """The comb table: ``ceil(bits/8)`` multiplications per power."""
        return FixedBaseExp(base, modulus, max_exponent_bits, backend=self)

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


#: ``libcrypto`` is opened by this soname first: ``ctypes.util.find_library``
#: forks ``ldconfig`` (21 ms against 1 ms), which a process pool's workers
#: would each pay inside a serving system's start-up.
_LIBCRYPTO_SONAME = "libcrypto.so.3"

#: Moduli shorter than this many bits stay on CPython's ``pow``: a
#: ``BN_mod_exp`` call carries ~9 us of fixed cost (five ctypes calls, a
#: Montgomery context per call), so on this box it loses to ``pow`` on a
#: one-limb modulus (12-16 against 7-13 us at 64 bits), is level at 80-112
#: bits and wins 1.8-3.5x from 128 bits up (10-11 against 17-39 us) — 64-bit
#: test keys (``N**2`` of 125-128 bits, ``p**2`` of 64) are never slower.
_NATIVE_MIN_BITS = 128

_BN = ctypes.c_void_p
#: every libcrypto function used, with its prototype: name -> (restype, argtypes)
_LIBCRYPTO_PROTOTYPES = {
    "BN_new": (_BN, []),
    "BN_free": (None, [_BN]),
    "BN_CTX_new": (_BN, []),
    "BN_CTX_free": (None, [_BN]),
    "BN_bin2bn": (_BN, [ctypes.c_char_p, ctypes.c_int, _BN]),
    "BN_bn2bin": (ctypes.c_int, [_BN, ctypes.c_char_p]),
    "BN_mod_exp": (ctypes.c_int, [_BN, _BN, _BN, _BN, _BN]),
    "BN_mod_exp2_mont": (ctypes.c_int, [_BN] * 8),
    "ERR_clear_error": (None, []),
    "OpenSSL_version": (ctypes.c_char_p, [ctypes.c_int]),
}


@functools.lru_cache(maxsize=None)
def _load_libcrypto() -> ctypes.CDLL | None:
    """The process's ``libcrypto`` with the prototypes above declared.

    ``None`` (cached like a handle) when the library cannot be opened or
    lacks one of the functions, which makes the native backend unavailable.
    """
    try:
        try:
            library = ctypes.CDLL(_LIBCRYPTO_SONAME)
        except OSError:
            found = ctypes.util.find_library("crypto")
            if found is None:
                return None
            library = ctypes.CDLL(found)
        for name, (restype, argtypes) in _LIBCRYPTO_PROTOTYPES.items():
            function = getattr(library, name)
            function.restype = restype
            function.argtypes = argtypes
    except (OSError, AttributeError):
        return None
    # A forked child makes its own scratch instead of trusting BIGNUMs
    # copied from the parent while its other threads may have been mid-call.
    os.register_at_fork(after_in_child=_drop_scratch)
    return library


class _Scratch:
    """One thread's ``BN_CTX``, reused ``BIGNUM``s and result buffer.

    ctypes releases the GIL inside every call and C2 runs P2 handlers on
    several mux threads, so scratch shared between threads would race; made
    once per thread, it also keeps ``BN_new`` / ``BN_CTX_new`` off the
    per-call path.  Freed with the thread (``threading.local`` drops it).
    """

    def __init__(self, library: ctypes.CDLL) -> None:
        self._library = library
        self.ctx = _BN(library.BN_CTX_new())
        self.bignums = [_BN(library.BN_new()) for _ in range(6)]
        (self.result, self.a, self.b, self.a2, self.b2,
         self.modulus) = self.bignums
        if not (self.ctx and all(self.bignums)):
            raise MemoryError("libcrypto could not allocate BIGNUM scratch")
        self.buffer = ctypes.create_string_buffer(256)

    def result_buffer(self, size: int) -> ctypes.Array:
        """The result buffer, grown to hold ``size`` bytes."""
        if len(self.buffer) < size:
            self.buffer = ctypes.create_string_buffer(size)
        return self.buffer

    def __del__(self) -> None:
        for bignum in self.bignums:
            self._library.BN_free(bignum)
        self._library.BN_CTX_free(self.ctx)


_scratch = threading.local()


def _drop_scratch() -> None:
    """Forget every thread's scratch (runs in a forked child)."""
    global _scratch
    _scratch = threading.local()


class OpenSSLBackend(BigintBackend):
    """``libcrypto``'s ``BN_mod_exp`` and ``BN_mod_exp2_mont`` through ctypes.

    Operands cross as big-endian bytes into per-thread reused ``BIGNUM``s
    (:class:`_Scratch`); the conversions cost ~3 us of a 170 us K=512 power.
    ``mulmod``, ``invert``, ``invert_batch`` and ``fixed_base`` are the base
    class's: Python-integer products and inverses and one native two-base
    power on split exponents.
    Moduli under ``_NATIVE_MIN_BITS`` bits go to ``pow``.

    Raises:
        ConfigurationError: when libcrypto cannot be loaded.
    """

    name = "openssl"

    def __init__(self) -> None:
        library = _load_libcrypto()
        if library is None:
            raise ConfigurationError(
                f"crypto backend 'openssl' requested but libcrypto "
                f"({_LIBCRYPTO_SONAME}) with the BN functions used could "
                f"not be loaded")
        self._library = library
        self._bin2bn = library.BN_bin2bn
        self._bn2bin = library.BN_bn2bin
        self._mod_exp = library.BN_mod_exp
        self._mod_exp2 = library.BN_mod_exp2_mont

    def library_version(self) -> str:
        """The loaded library's ``OpenSSL_version(0)`` string."""
        return self._library.OpenSSL_version(0).decode("ascii", "replace")

    def _thread_scratch(self) -> _Scratch:
        try:
            return _scratch.value
        except AttributeError:
            _scratch.value = _Scratch(self._library)
            return _scratch.value

    def _load(self, bignum: ctypes.c_void_p, value: int) -> None:
        """Set a scratch ``BIGNUM`` to a non-negative integer."""
        size = (value.bit_length() + 7) >> 3
        if not self._bin2bn(value.to_bytes(size, "big"), size, bignum):
            raise MemoryError("BN_bin2bn failed")

    def _result(self, scratch: _Scratch, size: int) -> int:
        """The integer in ``scratch.result`` (below a ``size``-byte modulus)."""
        buffer = scratch.result_buffer(size)
        return int.from_bytes(
            buffer[:self._bn2bin(scratch.result, buffer)], "big")

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        bits = modulus.bit_length()
        if bits < _NATIVE_MIN_BITS or modulus < 0 or exponent < 0:
            return pow(base, exponent, modulus)
        if not 0 <= base < modulus:
            base %= modulus
        scratch = self._thread_scratch()
        self._load(scratch.a, base)
        self._load(scratch.b, exponent)
        self._load(scratch.modulus, modulus)
        if self._mod_exp(scratch.result, scratch.a, scratch.b,
                         scratch.modulus, scratch.ctx) != 1:
            self._library.ERR_clear_error()
            raise CryptoError("BN_mod_exp failed")
        return self._result(scratch, (bits + 7) >> 3)

    def multi_powmod(self, bases: Sequence[int], exponents: Sequence[int],
                     modulus: int) -> int:
        """Bases two at a time through ``BN_mod_exp2_mont``.

        One squaring chain and one Montgomery context per *pair* of powers
        instead of per power: 188 against 321 us for the two-base strip
        step at K=512 (1.7x), 1,367 against 2,306 us at K=1024.  An odd
        base out goes through :meth:`powmod` and the partial products meet
        as Python integers; the result is the same integer as the product
        of powers.  Montgomery needs an odd modulus: an even one, like one
        under ``_NATIVE_MIN_BITS`` bits, takes the base class's product of
        :meth:`powmod` calls.  No ``BN_MONT_CTX`` is kept between calls
        (the last argument is ``NULL``): one cached per thread for the last
        modulus measured 0-4% of a power, inside the run-to-run noise.
        """
        bits = modulus.bit_length()
        if bits < _NATIVE_MIN_BITS or modulus < 0 or not modulus & 1:
            return super().multi_powmod(bases, exponents, modulus)
        _check_multi_powmod(bases, exponents)
        # a zero exponent contributes 1 (BN_mod_exp2_mont answers 0 for a
        # zero base whatever its exponent)
        terms = [(base % modulus, exponent)
                 for base, exponent in zip(bases, exponents) if exponent]
        acc = self.powmod(*terms.pop(), modulus) if len(terms) & 1 else 1
        if not terms:
            return acc
        scratch = self._thread_scratch()
        load = self._load
        size = (bits + 7) >> 3
        load(scratch.modulus, modulus)
        for (base, exponent), (base2, exponent2) in zip(terms[::2],
                                                        terms[1::2]):
            load(scratch.a, base)
            load(scratch.b, exponent)
            load(scratch.a2, base2)
            load(scratch.b2, exponent2)
            if self._mod_exp2(scratch.result, scratch.a, scratch.b,
                              scratch.a2, scratch.b2, scratch.modulus,
                              scratch.ctx, None) != 1:
                self._library.ERR_clear_error()
                raise CryptoError("BN_mod_exp2_mont failed")
            acc = acc * self._result(scratch, size) % modulus
        return acc


def _try_openssl() -> OpenSSLBackend | None:
    """Instantiate the native backend, or ``None`` when libcrypto is unusable."""
    try:
        return OpenSSLBackend()
    except ConfigurationError:
        return None


def available_backends() -> list[str]:
    """Names of the backends usable on this machine (always incl. python)."""
    names = ["python"]
    if _try_openssl() is not None:
        names.append("openssl")
    return names


def resolve_backend(name: str) -> BigintBackend:
    """Build a backend instance from its name (``python``/``openssl``/``auto``).

    ``auto`` prefers libcrypto when it loads and falls back to pure Python.

    Raises:
        ConfigurationError: for an unknown name, or when ``openssl`` was
            requested explicitly but libcrypto cannot be loaded.
    """
    normalized = name.strip().lower()
    if normalized == "python":
        return PythonBackend()
    if normalized == "openssl":
        return OpenSSLBackend()
    if normalized == "auto":
        return _try_openssl() or PythonBackend()
    raise ConfigurationError(
        f"unknown crypto backend {name!r} (choose from python, openssl, auto)"
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
            :func:`resolve_backend` (the active backend is kept when it
            already goes by that name — how a pool worker adopts its
            driver's choice), or ``None`` to re-resolve from the environment
            on next use.

    Returns:
        The backend now active (for ``None``, the freshly re-resolved one).
    """
    global _active
    with _active_lock:
        if backend is None:
            _active = None
        elif isinstance(backend, str):
            if _active is None or _active.name != backend:
                _active = resolve_backend(backend)
        else:
            _active = backend
    return get_backend()


class FixedBasePower:
    """Fixed-base exponentiation by one two-base power on split exponents.

    What :meth:`BigintBackend.fixed_base` returns where a native power is
    cheaper than the comb's Python-level multiplications — for the public
    obfuscator base modulo ``N**2`` and for the key holder's two CRT legs
    modulo ``p**2`` and ``q**2`` alike.  With ``half = ceil(bits / 2)`` of
    ``max_exponent_bits``, ``high = base ** (2**half)`` is computed once,
    and ``base ** e`` is ``base ** (e mod 2**half) * high ** (e >> half)``:
    one :meth:`~BigintBackend.multi_powmod` whose two exponents share one
    squaring chain of half the length [Brickell, Gordon, McCurley, Wilson,
    "Fast exponentiation with precomputation", EUROCRYPT '92].  On the
    native backend that is one ``BN_mod_exp2_mont``, 1.4x cheaper than a
    ``BN_mod_exp`` of the whole exponent at K=512 and 1.5x at K=1024.  The
    integer is the same for every exponent, including one of more than
    ``max_exponent_bits`` bits (its high part is simply longer).  ``pow``
    and ``base`` as on :class:`FixedBaseExp`; the power is taken by the
    backend that chose this object over a table, whichever is active later.
    """

    def __init__(self, base: int, modulus: int, max_exponent_bits: int,
                 backend: BigintBackend) -> None:
        self.base = base % modulus
        self.modulus = modulus
        self.backend = backend
        self._half = (max_exponent_bits + 1) // 2
        self._high = backend.powmod(self.base, 1 << self._half, modulus)

    def pow(self, exponent: int) -> int:
        """``base ** exponent mod modulus`` (exponent >= 0)."""
        if exponent < 0:
            raise CryptoError(
                "FixedBasePower.pow requires a non-negative exponent")
        half = self._half
        return self.backend.multi_powmod(
            [self.base, self._high],
            [exponent & ((1 << half) - 1), exponent >> half], self.modulus)


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
