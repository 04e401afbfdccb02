"""Print the two size measures of the package source that ROADMAP aim 2 tracks.

* lines: every line of every `.py` file under `src/`, in total and then per
  file (its path under the source directory);
* settable values: the fields of dataclasses plus the parameters that have a
  default value (positional and keyword-only), found by parsing each file.

Run from the repository root, or give the source directory:

    python tools/source_counts.py [src]
"""

import ast
import sys
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _is_class_var(annotation: ast.expr) -> bool:
    target = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name == "ClassVar"


def counts(tree: ast.AST) -> tuple[int, int]:
    """(defaulted parameters, dataclass fields) of one parsed module."""
    defaulted = fields = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            defaulted += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields += sum(
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and not _is_class_var(stmt.annotation)
                for stmt in node.body
            )
    return defaulted, fields


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    file_lines = {}
    defaulted = fields = 0
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        file_lines[path.relative_to(root).as_posix()] = len(text.splitlines())
        d, f = counts(ast.parse(text, filename=str(path)))
        defaulted += d
        fields += f
    print(f"src lines: {sum(file_lines.values())}")
    print(
        f"settable values: {fields + defaulted} "
        f"({fields} dataclass fields + {defaulted} defaulted parameters)"
    )
    for name, n in file_lines.items():
        print(f"  {name}: {n} lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
