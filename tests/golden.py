"""Golden files: the v1 CLI's outputs, its help texts and the public API,
pinned as text under tests/golden/ and compared byte for byte.

Each file has a line builder, a plain function that returns the file's
text: ``test_cli_contract.battery_text()`` for ``battery.jsonl``,
``test_cli.help_text(command)`` for ``help/<command>.txt`` and
``test_wavelet.api_text()`` for ``api.txt``.  A recorded v1 step
rewrites a file from its builder with the command in the README's Tests
section.
"""

from itertools import zip_longest
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"


def assert_golden(name: str, text: str) -> None:
    """Fail at the first line where text differs from tests/golden/<name>."""
    with open(GOLDEN / name, encoding="utf-8", newline="") as fh:
        pinned = fh.read()
    if text == pinned:
        return
    pairs = zip_longest(text.splitlines(keepends=True), pinned.splitlines(keepends=True))
    number, (got, want) = next((i, p) for i, p in enumerate(pairs, 1) if p[0] != p[1])
    raise AssertionError(f"tests/golden/{name}:{number}: got {got!r}, pinned {want!r}")
