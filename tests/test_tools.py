"""The repository's measuring scripts under `tools/`."""

import subprocess
import sys
import textwrap
from pathlib import Path

SOURCE_COUNTS = Path(__file__).resolve().parents[1] / "tools" / "source_counts.py"


def source_counts(*args) -> list[str]:
    out = subprocess.run(
        [sys.executable, str(SOURCE_COUNTS), *map(str, args)],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


class TestSourceCounts:
    def test_counts_fields_and_defaults(self, tmp_path):
        top = textwrap.dedent("""\
            import dataclasses
            from typing import ClassVar


            @dataclasses.dataclass(frozen=True)
            class Point:
                x: float
                y: float = 0.0
                ORIGIN: ClassVar[tuple] = (0.0, 0.0)


            class Plain:
                z: int = 1


            def scale(p, factor=2.0, *, clip=None):
                return p


            shift = lambda p, dx=1.0: p
        """)
        nested = textwrap.dedent("""\
            from dataclasses import dataclass


            @dataclass
            class Label:
                text: str
        """)
        (tmp_path / "pkg").mkdir()
        (tmp_path / "top.py").write_text(top)
        (tmp_path / "pkg" / "nested.py").write_text(nested)
        (tmp_path / "notes.txt").write_text("not python\n")
        lines = len(top.splitlines()) + len(nested.splitlines())
        assert source_counts(tmp_path) == [
            f"src lines: {lines}",
            "settable values: 6 (3 dataclass fields + 3 defaulted parameters)",
        ]

    def test_package_source(self):
        lines, values = source_counts()
        assert lines.startswith("src lines: ")
        assert values.startswith("settable values: ")
