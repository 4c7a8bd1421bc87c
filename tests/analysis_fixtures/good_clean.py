"""Clean fixture: the sanctioned idiom for every rule (0 findings)."""

import time

import numpy as np

from repro.core import env
from repro.noise.program import cached_compile_program


def seeded_draw(seed: int) -> float:
    rng = np.random.default_rng(seed)
    return float(rng.random())


def ordered_total(values: list[float]) -> float:
    pending = set(values)
    total = 0.0
    for value in sorted(pending):
        total += value
    return total


def cache_dir() -> str | None:
    return env.read_raw("REPRO_CACHE_DIR") or None


def compile_cached(physical: object, noise_model: object) -> object:
    return cached_compile_program(physical, noise_model)


def timed() -> float:
    # repro-lint: disable=DET002 -- fixture demonstrating a justified, used suppression
    return time.perf_counter()
