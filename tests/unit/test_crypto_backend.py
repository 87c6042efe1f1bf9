"""Tests for the pluggable bigint backend and the fixed-base window tables."""

from __future__ import annotations

import gc
import sys
import threading
import weakref
from math import prod
from random import Random

import pytest

from repro.core.parallel import PersistentWorkerPool
from repro.crypto import backend as backend_module
from repro.crypto.backend import (
    BACKEND_ENV_VAR,
    FixedBaseExp,
    FixedBasePower,
    OpenSSLBackend,
    PythonBackend,
    available_backends,
    backend_from_env,
    get_backend,
    resolve_backend,
    set_backend,
)
from repro.exceptions import ConfigurationError, CryptoError


@pytest.fixture(autouse=True)
def restore_backend():
    """Every test leaves the process-wide backend as it found it."""
    yield
    set_backend(None)


class TestBackendSelection:
    def test_python_backend_always_available(self):
        assert "python" in available_backends()

    def test_resolve_python(self):
        assert resolve_backend("python").name == "python"

    def test_resolve_auto_returns_working_backend(self):
        backend = resolve_backend("auto")
        assert backend.name == available_backends()[-1]

    def test_resolve_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("mpmath")

    def test_resolve_openssl_errors_when_missing(self, monkeypatch):
        if "openssl" in available_backends():
            assert resolve_backend("openssl").name == "openssl"
        monkeypatch.setattr(backend_module, "_load_libcrypto", lambda: None)
        with pytest.raises(ConfigurationError, match="libcrypto"):
            resolve_backend("openssl")
        # no silent fallback for the explicit name; ``auto`` degrades
        assert available_backends() == ["python"]
        assert resolve_backend("auto").name == "python"

    def test_the_gmpy2_choice_is_gone(self):
        with pytest.raises(ConfigurationError, match="unknown crypto backend"):
            resolve_backend("gmpy2")

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert backend_from_env().name == "python"

    def test_set_backend_by_name_and_reset(self):
        assert set_backend("python").name == "python"
        assert get_backend().name == "python"
        set_backend(None)  # re-resolve lazily from the environment
        assert get_backend().name in available_backends()

    def test_set_backend_by_name_keeps_the_active_instance(self):
        active = set_backend("python")
        assert set_backend("python") is active

    def test_set_backend_instance(self):
        backend = PythonBackend()
        assert set_backend(backend) is backend


class TestPythonBackendPrimitives:
    def test_powmod_matches_builtin(self):
        backend = PythonBackend()
        assert backend.powmod(7, 130, 1009) == pow(7, 130, 1009)

    def test_mulmod(self):
        backend = PythonBackend()
        assert backend.mulmod(123456, 654321, 997) == (123456 * 654321) % 997

    def test_invert_roundtrip(self):
        backend = PythonBackend()
        inverse = backend.invert(1234, 10007)
        assert (1234 * inverse) % 10007 == 1

    def test_invert_non_invertible_raises(self):
        backend = PythonBackend()
        with pytest.raises(CryptoError):
            backend.invert(6, 9)


@pytest.mark.skipif("openssl" not in available_backends(),
                    reason="libcrypto not loadable")
class TestOpenSSLBackendPrimitives:
    #: a modulus wide enough to take the native path
    MODULUS = (1 << 521) - 1

    def test_agrees_with_python_backend(self):
        native = OpenSSLBackend()
        py = PythonBackend()
        for modulus in (1009, self.MODULUS):
            assert native.powmod(7, 130, modulus) == py.powmod(7, 130, modulus)
            assert native.mulmod(12345, 67890, modulus) \
                == py.mulmod(12345, 67890, modulus)
            assert native.invert(1234, modulus) == py.invert(1234, modulus)

    def test_invert_non_invertible_raises(self):
        with pytest.raises(CryptoError):
            OpenSSLBackend().invert(6, 9)
        with pytest.raises(CryptoError, match="has no inverse modulo"):
            OpenSSLBackend().invert(6 * self.MODULUS, self.MODULUS ** 2)

    def test_fixed_base_is_table_free(self):
        native = OpenSSLBackend()
        power = native.fixed_base(3 + self.MODULUS, self.MODULUS, 521)
        assert not isinstance(power, FixedBaseExp)
        assert power.base == 3
        assert power.backend is native
        assert power.pow(12345) == pow(3, 12345, self.MODULUS)
        with pytest.raises(CryptoError, match="non-negative"):
            power.pow(-1)

    def test_reports_the_loaded_library(self):
        assert "SSL" in OpenSSLBackend().library_version()
        assert PythonBackend().library_version() is None


def _powers(seed: int, count: int) -> list[tuple[int, int, int]]:
    """``count`` K=256-shaped ``(base, exponent, modulus)`` triples."""
    rng = Random(seed)
    modulus = rng.getrandbits(512) | (1 << 511) | 1
    return [(rng.getrandbits(511), rng.getrandbits(256), modulus)
            for _ in range(count)]


def _native_results(backend: OpenSSLBackend,
                    triples: list[tuple[int, int, int]]) -> list[int]:
    """Each triple's power, then the two-base products of neighbours (the
    strip step's shape: ``a``/``b`` and ``a2``/``b2`` of the scratch), one
    three-base product (a pair plus the odd one out through ``powmod``) and
    every exponent as a split fixed-base power of the first base."""
    modulus = triples[0][2]
    pairs = list(zip(triples[::2], triples[1::2]))
    fixed = backend.fixed_base(triples[0][0], modulus, 256)
    return ([backend.powmod(*triple) for triple in triples]
            + [backend.multi_powmod([a[0], b[0]], [a[1], b[1]], modulus)
               for a, b in pairs]
            + [backend.multi_powmod([t[0] for t in triples[:3]],
                                    [t[1] for t in triples[:3]], modulus)]
            + [fixed.pow(t[1]) for t in triples])


def _expected_results(triples: list[tuple[int, int, int]]) -> list[int]:
    modulus = triples[0][2]
    powers = [pow(*triple) for triple in triples]
    return (powers
            + [a * b % modulus for a, b in zip(powers[::2], powers[1::2])]
            + [prod(powers[:3]) % modulus]
            + [pow(triples[0][0], t[1], modulus) for t in triples])


def _native_powers_in_worker(task: tuple[int, int]) -> list[int]:
    """Pool task: ``_native_results`` of ``_powers(*task)``."""
    return _native_results(set_backend("openssl"), _powers(*task))


class _CountingLibrary:
    """``libcrypto`` with its ``BN_free`` / ``BN_CTX_free`` calls counted."""

    def __init__(self, library) -> None:
        self._library = library
        self.freed = {"BN_free": 0, "BN_CTX_free": 0}

    def __getattr__(self, name):
        function = getattr(self._library, name)
        if name not in self.freed:
            return function

        def counted(pointer):
            self.freed[name] += 1
            return function(pointer)
        return counted


@pytest.mark.skipif("openssl" not in available_backends(),
                    reason="libcrypto not loadable")
class TestNativeBackendIsSharedSafely:
    THREADS, PER_THREAD = 8, 200

    def test_threads_on_one_backend_object_get_the_serial_results(self):
        """ctypes drops the GIL inside every call: BIGNUM scratch shared
        between threads would interleave operands (each thread has its own)."""
        backend = OpenSSLBackend()
        work = [_powers(seed, self.PER_THREAD) for seed in range(self.THREADS)]
        expected = [_expected_results(triples) for triples in work]
        results: list[list[int] | None] = [None] * self.THREADS
        scratches: list[weakref.ref | None] = [None] * self.THREADS
        start = threading.Barrier(self.THREADS)

        def run(index: int) -> None:
            start.wait(timeout=30)
            results[index] = _native_results(backend, work[index])
            scratches[index] = weakref.ref(backend_module._scratch.value)

        threads = [threading.Thread(target=run, args=(index,))
                   for index in range(self.THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == expected
        # every thread had scratch of its own, gone with the thread
        del threads
        gc.collect()
        assert len(scratches) == self.THREADS
        assert all(scratch is not None and scratch() is None
                   for scratch in scratches)

    def test_scratch_frees_everything_it_allocated(self):
        """The six ``BIGNUM``s (two-base operands included) and the
        ``BN_CTX`` go back to libcrypto when a thread's scratch is dropped."""
        library = _CountingLibrary(backend_module._load_libcrypto())
        scratch = backend_module._Scratch(library)
        assert len(scratch.bignums) == 6
        del scratch
        gc.collect()
        assert library.freed == {"BN_free": 6, "BN_CTX_free": 1}

    def test_a_forked_child_drops_the_scratch_it_inherited(self):
        """What ``os.register_at_fork`` runs in the child: the parent's
        scratch (another thread may have been mid-call) is forgotten and the
        next call makes its own."""
        backend = OpenSSLBackend()
        triples = _powers(7, 4)
        assert _native_results(backend, triples) == _expected_results(triples)
        inherited = backend_module._scratch.value
        backend_module._drop_scratch()
        assert not hasattr(backend_module._scratch, "value")
        assert _native_results(backend, triples) == _expected_results(triples)
        assert backend_module._scratch.value is not inherited

    def test_a_pool_worker_process_returns_the_drivers_power(self):
        """The driver's scratch exists before the pool forks; the worker
        must come up with working scratch of its own."""
        task = (99, 5)
        driver = _native_results(OpenSSLBackend(), _powers(*task))
        with PersistentWorkerPool(workers=2, backend="process") as pool:
            from_workers = pool.map(_native_powers_in_worker, [task, task])
        assert from_workers == [driver, driver]
        assert driver == _expected_results(_powers(*task))


class TestFixedBasePower:
    """One two-base power on the exponent's halves: the integer of ``pow``."""

    @pytest.mark.parametrize("backend_name", available_backends())
    @pytest.mark.parametrize("modulus_bits", [127, 128, 129])
    def test_edge_exponents_match_pow(self, backend_name, modulus_bits):
        backend = resolve_backend(backend_name)
        rng = Random(modulus_bits)
        modulus = rng.getrandbits(modulus_bits) | (1 << (modulus_bits - 1)) | 1
        base = modulus + rng.randrange(2, modulus)  # reduced on the way in
        bits = modulus_bits // 2
        power = FixedBasePower(base, modulus, bits, backend=backend)
        half = (bits + 1) // 2
        exponents = [0, 1, (1 << half) - 1, 1 << half, (1 << bits) - 1,
                     (1 << bits) + rng.getrandbits(bits),
                     rng.getrandbits(3 * bits)]
        exponents += [rng.getrandbits(bits) for _ in range(20)]
        assert power.base == base % modulus
        assert [power.pow(e) for e in exponents] \
            == [pow(base, e, modulus) for e in exponents]
        with pytest.raises(CryptoError, match="non-negative"):
            power.pow(-1)

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_an_even_modulus_and_a_one_bit_range(self, backend_name):
        backend = resolve_backend(backend_name)
        modulus = (1 << 200) + 6
        for bits in (1, 2, 200):
            power = FixedBasePower(3, modulus, bits, backend=backend)
            assert [power.pow(e) for e in (0, 1, 2, 3, 12345)] \
                == [pow(3, e, modulus) for e in (0, 1, 2, 3, 12345)]


class TestFixedBaseExp:
    def test_is_the_python_backends_fixed_base(self):
        comb = PythonBackend().fixed_base(3, 1_000_003, 20)
        assert isinstance(comb, FixedBaseExp)
        assert comb.pow(77) == pow(3, 77, 1_000_003)

    def test_matches_pow_for_random_exponents(self):
        rng = Random(5)
        modulus = 0xFFFF_FFFB * 0xFFFF_FFEF
        base = rng.randrange(2, modulus)
        comb = FixedBaseExp(base, modulus, max_exponent_bits=64, window=4)
        for _ in range(50):
            exponent = rng.randrange(1 << 64)
            assert comb.pow(exponent) == pow(base, exponent, modulus)

    def test_edge_exponents(self):
        comb = FixedBaseExp(3, 1_000_003, max_exponent_bits=20)
        assert comb.pow(0) == 1
        assert comb.pow(1) == 3
        assert comb.pow((1 << 20) - 1) == pow(3, (1 << 20) - 1, 1_000_003)

    def test_oversized_exponent_rejected(self):
        comb = FixedBaseExp(3, 1_000_003, max_exponent_bits=8)
        with pytest.raises(CryptoError):
            comb.pow(1 << 9)

    def test_negative_exponent_rejected(self):
        comb = FixedBaseExp(3, 1_000_003, max_exponent_bits=8)
        with pytest.raises(CryptoError):
            comb.pow(-1)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(CryptoError):
            FixedBaseExp(3, 101, max_exponent_bits=0)
        with pytest.raises(CryptoError):
            FixedBaseExp(3, 101, max_exponent_bits=8, window=0)


class TestScalarMulRegression:
    def test_negative_scalar_reduces_into_zn(self, public_key, private_key):
        """Regression for the identical-branch bug in raw_scalar_mul: a
        negative scalar must follow the N - x convention, not reach pow()."""
        cipher = public_key.encrypt(21)
        assert private_key.decrypt(cipher * -3) == -63
        raw = public_key.raw_scalar_mul(cipher.value, -3)
        assert private_key.decrypt(type(cipher)(public_key, raw)) == -63

    def test_negation_via_inverse_matches_textbook(self, public_key,
                                                   private_key):
        cipher = public_key.encrypt(1234)
        via_inverse = public_key.raw_scalar_mul(cipher.value, -1)
        via_pow = pow(cipher.value, public_key.n - 1, public_key.nsquare)
        decrypt = private_key.decrypt
        assert decrypt(type(cipher)(public_key, via_inverse)) == -1234
        assert decrypt(type(cipher)(public_key, via_pow)) == -1234

    def test_raw_negation_counts_as_exponentiation(self, public_key):
        cipher = public_key.encrypt(5)
        before = public_key.counter.exponentiations
        public_key.raw_scalar_mul(cipher.value, -1)
        assert public_key.counter.exponentiations == before + 1
