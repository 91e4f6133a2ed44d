"""Project loader: every module read once, parsed on first use.

:func:`load_paths` turns the files and directories a lint run names
(``src/repro`` in CI, a fixture mini-project or a lone file in tests)
into :class:`ModuleInfo` records.  A module's dotted name comes from
the ``__init__.py`` chain above it, so a file is called the same
whether it is reached alone or through its package.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional

from repro.errors import AnalysisError


@dataclass
class ModuleInfo:
    """One project module: identity, source, and a lazy AST."""

    name: str
    path: Path
    source: str
    lines: List[str] = field(default_factory=list)
    _tree: Optional[ast.Module] = field(default=None, repr=False)

    @classmethod
    def from_source(
        cls, source: str, path: Path, root: Optional[Path] = None
    ) -> "ModuleInfo":
        """The module ``source`` would be if it were saved at ``path``."""
        path = Path(path)
        return cls(
            name=module_name_for(root or path.parent, path),
            path=path,
            source=source,
            lines=source.splitlines(),
        )

    @property
    def tree(self) -> ast.Module:
        """The parsed AST (parsed on first access, then memoized)."""
        if self._tree is None:
            self._tree = ast.parse(self.source, filename=str(self.path))
        return self._tree


def module_name_for(root: Path, path: Path) -> str:
    """Dotted module name of ``path``.

    Inside a package (every directory up the chain holding an
    ``__init__.py``) the name is the import name, whatever ``root``
    the run started from.  A loose file is named by its path below
    ``root``.
    """
    packages: List[str] = []
    parent = path.parent
    while (parent / "__init__.py").is_file():
        packages.append(parent.name)
        parent = parent.parent
    if packages:
        parts = packages[::-1] + [path.stem]
    else:
        parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    for path in paths:
        path = Path(path)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py" and path.exists():
            yield path
        elif not path.exists():
            raise AnalysisError(f"no such file or directory: {path}")


def load_paths(paths: Iterable[Path]) -> Dict[str, ModuleInfo]:
    """Load every ``.py`` file under ``paths``, keyed by module name.

    All paths of one run form one project: a file named twice is
    loaded once, and two different files claiming one module name are
    an error (the call graph could not tell them apart).  So is finding
    no module at all: a path that holds nothing to lint is a typo.
    """
    paths = list(paths)
    modules: Dict[str, ModuleInfo] = {}
    for root in paths:
        root = Path(root)
        base = root if root.is_dir() else root.parent
        for path in iter_python_files([root]):
            info = ModuleInfo.from_source(
                path.read_text(encoding="utf-8"), path, base
            )
            known = modules.setdefault(info.name, info)
            if known.path.resolve() != path.resolve():
                raise AnalysisError(
                    f"duplicate module name {info.name!r}: "
                    f"{known.path} vs {path}"
                )
    if not modules:
        raise AnalysisError(
            f"no python modules under {', '.join(map(str, paths))}"
        )
    return modules
