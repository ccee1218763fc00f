"""Locate the library under test: ``src/proxbundle`` of the checkout this
directory sits in."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class LibraryMissing(RuntimeError):
    """The checkout holds no proxbundle sources to benchmark."""


def load():
    """Put the checkout's ``src`` first on ``sys.path`` and import proxbundle.

    Raises LibraryMissing when the sources are absent or when the import
    resolves to a copy outside this checkout.
    """
    if not (SRC / "proxbundle" / "__init__.py").is_file():
        raise LibraryMissing(f"no proxbundle sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import proxbundle

    if Path(proxbundle.__file__).resolve().parent != SRC / "proxbundle":
        raise LibraryMissing(f"proxbundle imported from {proxbundle.__file__}, "
                             f"not from {SRC}")
    return proxbundle
