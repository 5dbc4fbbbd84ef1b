"""Generate the checked-in CLI reference (``docs/cli.md``).

The reference page is the live ``--help`` output of every ``repro``
subcommand, rendered at a pinned width so the bytes are reproducible
across terminals and CI runners.  ``tests/test_docs.py`` asserts the
committed page matches this generator, so the docs can never drift from
the argparse tree:

```bash
PYTHONPATH=src python -m repro.docsgen            # rewrite docs/cli.md
PYTHONPATH=src python -m repro.docsgen --check    # CI freshness gate
```
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from .cli import build_parser
from .obs.jsonl import write_atomic

#: Help text renders at this terminal width, pinned for reproducibility.
HELP_WIDTH = 80

DEFAULT_OUTPUT = Path("docs") / "cli.md"

_HEADER = """\
# CLI reference

<!-- Generated file — do not edit by hand.
     Regenerate with: PYTHONPATH=src python -m repro.docsgen -->

Every command is available as `python -m repro <command>` (or plain
`repro <command>` after `pip install -e .`).  This page is the live
`--help` output of each subcommand; `tests/test_docs.py` asserts it
matches the code, and `python -m repro.docsgen` regenerates it.
"""


class _PinnedWidth:
    """Temporarily pin ``COLUMNS`` so argparse wraps deterministically."""

    def __enter__(self) -> "_PinnedWidth":
        self._saved = os.environ.get("COLUMNS")
        os.environ["COLUMNS"] = str(HELP_WIDTH)
        return self

    def __exit__(self, *_exc) -> None:
        if self._saved is None:
            os.environ.pop("COLUMNS", None)
        else:
            os.environ["COLUMNS"] = self._saved


def _subcommands(parser: argparse.ArgumentParser):
    """``(name, subparser)`` pairs from the one subparsers action."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            seen = set()
            for name, sub in action.choices.items():
                if id(sub) not in seen:  # aliases share a parser
                    seen.add(id(sub))
                    yield name, sub


def cli_reference_markdown() -> str:
    """The whole ``docs/cli.md`` page as a string."""
    with _PinnedWidth():
        parser = build_parser()
        sections: List[str] = [_HEADER]
        sections.append("## `repro`\n\n```text\n"
                        + parser.format_help().rstrip() + "\n```\n")
        for name, sub in _subcommands(parser):
            sections.append(
                f"## `repro {name}`\n\n```text\n"
                + sub.format_help().rstrip() + "\n```\n"
            )
    return "\n".join(sections)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.docsgen",
        description="Regenerate (or check) the committed CLI reference.",
    )
    parser.add_argument("output", nargs="?", default=str(DEFAULT_OUTPUT),
                        help=f"target file (default {DEFAULT_OUTPUT})")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if the file is stale instead of "
                             "rewriting it")
    args = parser.parse_args(argv)

    target = Path(args.output)
    rendered = cli_reference_markdown()
    if args.check:
        current = target.read_text() if target.exists() else None
        if current != rendered:
            print(f"{target} is stale; regenerate with "
                  "'PYTHONPATH=src python -m repro.docsgen'",
                  file=sys.stderr)
            return 1
        print(f"{target} is up to date")
        return 0
    target.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(target, rendered)
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
