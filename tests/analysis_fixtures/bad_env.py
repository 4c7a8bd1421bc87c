"""ENV001 fixture: direct environment reads (3 findings)."""

import os
from os import environ


def read_attribute() -> str | None:
    return os.environ.get("REPRO_CACHE_DIR")


def read_getenv() -> str | None:
    return os.getenv("REPRO_CACHE_DIR")


def read_from_import() -> str | None:
    return environ.get("REPRO_CACHE_DIR")
