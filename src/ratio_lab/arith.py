"""Prime and divisor helpers shared by the other modules, and the lazy
import through which they load numpy."""

from __future__ import annotations

import importlib.util
import sys
from math import isqrt


def primes_upto(limit: int) -> list[int]:
    """The primes p <= limit, by the sieve of Eratosthenes."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [p for p in range(limit + 1) if sieve[p]]


def factorize(n: int) -> list[tuple[int, int]]:
    """The (prime, exponent) pairs of n >= 1, ascending, by trial division
    by the integers up to 10^6.  A cofactor left below 10^12 is prime; a
    larger one cannot be certified prime without searching past 10^6, and
    raises ValueError."""
    out = []
    p = 2
    while p * p <= n and p <= 10**6:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        p += 1 if p == 2 else 2
    if p * p <= n:
        raise ValueError(f"trial division to 10^6 leaves a cofactor {n} above 10^12, not certified prime")
    if n > 1:
        out.append((n, 1))
    return out


def divisors(m: int, primes=None) -> list[int]:
    """The positive divisors of |m|, ascending (none for m = 0), built from
    `primes`, which must hold every prime factor of m, or by default from
    the factorization of |m|, which raises ValueError as factorize does."""
    if m == 0:
        return []
    m = abs(m)
    out = [1]
    for p in [p for p, _ in factorize(m)] if primes is None else primes:
        if m == 1:
            break
        k = 0
        while m % p == 0:
            m, k = m // p, k + 1
        out = [d * p**j for d in out for j in range(k + 1)]
    assert m == 1, "a prime factor of m is missing from primes"
    return sorted(out)


def lazy_import(name: str):
    """The module `name`, run on its first attribute access rather than
    now (importlib.util.LazyLoader); if it is already in sys.modules,
    that module.  A missing module raises ModuleNotFoundError here."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
