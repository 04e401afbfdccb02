"""Print the two size measures of the package source that ROADMAP aim 2 tracks.

* lines: every line of every `.py` file under `src/`, in total and then per
  file (its path under the source directory);
* settable values: the fields of dataclasses plus the parameters that have a
  default value (positional and keyword-only), found by parsing each file;
  each defaulted parameter is then listed as `file: function(param)`, the
  function named with its enclosing classes and functions.

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


def counts(tree: ast.AST) -> tuple[list[str], int]:
    """(defaulted parameters as `function(param)`, in source order, and the
    number of dataclass fields) of one parsed module."""
    defaulted, fields = [], 0

    def visit(node: ast.AST, scope: tuple) -> None:
        nonlocal fields
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                inner = (*scope, getattr(child, "name", "<lambda>"))
                args = child.args
                positional = args.posonlyargs + args.args
                params = positional[len(positional) - len(args.defaults):] + [
                    a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                ]
                defaulted.extend(f"{'.'.join(inner)}({a.arg})" for a in params)
            elif isinstance(child, ast.ClassDef):
                inner = (*scope, child.name)
                if _is_dataclass(child):
                    fields += sum(
                        isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and not _is_class_var(stmt.annotation)
                        for stmt in child.body
                    )
            visit(child, inner)

    visit(tree, ())
    return defaulted, fields


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    file_lines, defaulted = {}, []
    fields = 0
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        name = path.relative_to(root).as_posix()
        file_lines[name] = len(text.splitlines())
        d, f = counts(ast.parse(text, filename=str(path)))
        defaulted += [f"{name}: {param}" for param in d]
        fields += f
    print(f"src lines: {sum(file_lines.values())}")
    print(
        f"settable values: {fields + len(defaulted)} "
        f"({fields} dataclass fields + {len(defaulted)} defaulted parameters)"
    )
    for name, n in file_lines.items():
        print(f"  {name}: {n} lines")
    print("defaulted parameters:")
    for line in defaulted:
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
